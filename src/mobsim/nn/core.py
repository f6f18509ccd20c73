"""Reverse-mode autodiff core.

Everything is a float64 numpy array wrapped in a :class:`Tensor`.  While
gradients are enabled an op records its parents and a backward function that
states only the op's local derivatives: given the gradient of the output it
returns one gradient per parent, in parent order.  ``backward()`` on a scalar
walks the tape once and is the only place that accumulates those gradients,
into the parents that require them.  A backward function closes over the op's
inputs and arrays, never over its output tensor, so a tape holds no reference
cycle and is freed as soon as its last reference goes.

A node's first gradient is the array its child's backward returned, taken
as it is; each later one makes a new sum, so no gradient array is written in
place and an array one op hands to two parents (``add``, a ``reshape`` view)
stays intact.  An interior node's ``.grad`` is dropped (set to None) once its
own backward has run; the root and the leaves keep theirs.  A leaf's
gradient persists across backward calls until ``zero_grad``, while an
interior root's is reset to ones at each call, so a second walk from it
adds the same gradients to the leaves as the first.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (sampling and evaluation)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self) -> float:
        return float(self.values)

    def _accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self):
        self.grad = np.zeros_like(self.values)

    def backward(self):
        """Backpropagate from this scalar through the recorded tape."""
        if self.values.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        if self._backward is not None:
            self.grad = None        # each walk starts from ones, not an earlier walk's sum
        self._accumulate(np.ones_like(self.values))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                for parent, g in zip(node._parents, node._backward(node.grad)):
                    if parent.requires_grad:
                        parent._accumulate(g)
                if node is not self:
                    node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values)


def _result(values, parents, backward) -> Tensor:
    """Record an op: ``backward(g)`` maps the output gradient ``g`` to one
    gradient per parent, in ``parents`` order."""
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out = Tensor(values, requires_grad=True)
        out._parents = tuple(parents)
        out._backward = backward
        return out
    return Tensor(values)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to an operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(a.values + b.values, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        return _unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)

    return _result(a.values * b.values, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _result(-a.values, (a,), lambda g: (-g,))


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function of an array: 1/(1+e^-x) for x >= 0,
    e^x/(1+e^x) below, both through e = exp(-|x|) <= 1 (taken as
    exp(min(x, -x)), which also keeps the sign of a NaN input).  Each entry
    is one division, of 1 or e by 1 + e; as e <= 1 (or NaN), the numerator is
    max(x >= 0, e).  Every step after the first runs in place."""
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    out = np.maximum(x >= 0, e)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    values = sigmoid_values(a.values)
    return _result(values, (a,), lambda g: (g * values * (1.0 - values),))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _result(np.concatenate([t.values for t in tensors], axis=axis), tensors,
                   lambda g: np.split(g, splits, axis=axis))


def gather_rows(table, ids) -> Tensor:
    """Select entries along the first axis by integer id (embedding lookup):
    ``ids`` of shape S give a result of shape S + table.shape[1:]."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or ids.max(initial=-1) >= table.shape[0]:
        raise ValueError(f"ids outside [0, {table.shape[0]})")

    def backward(g):
        acc = np.zeros_like(table.values)
        np.add.at(acc, ids, g)
        return (acc,)

    return _result(table.values[ids], (table,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    return _result(a.values.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def tmean(a) -> Tensor:
    """The mean of all entries, as a scalar."""
    a = _as_tensor(a)
    count = a.values.size
    return _result(a.values.mean(), (a,),
                   lambda g: (np.broadcast_to(g / count, a.shape).copy(),))


def dropout_mask(shape, rate: float, rng) -> np.ndarray:
    """An inverted-dropout scale: 0 with probability ``rate``, else 1 / (1 - rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(a, rate: float, rng) -> Tensor:
    """Inverted dropout; rate 0 returns the input tensor unchanged."""
    if rate == 0.0:
        return a
    a = _as_tensor(a)
    mask = dropout_mask(a.shape, rate, rng)
    return _result(a.values * mask, (a,), lambda g: (g * mask,))


def cross_entropy(logits, targets) -> Tensor:
    """Per-row negative log-softmax of integer targets on (B, N) logits,
    logsumexp(z) - z[target], taken after shifting each row by its max so
    that no logit gap underflows it; returns shape (B,).  The gradient is
    softmax(z) - onehot(target)."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(len(targets))
    shifted = logits.values - logits.values.max(axis=-1, keepdims=True)
    picked = shifted[rows, targets]
    ez = np.exp(shifted, out=shifted)
    total = ez.sum(axis=-1, keepdims=True)

    def backward(g):
        # A fresh array: a second backward reads ez again.
        grad = ez / total
        grad[rows, targets] -= 1.0
        grad *= g[:, None]
        return (grad,)

    return _result(np.log(total[:, 0]) - picked, (logits,), backward)


def binary_cross_entropy(p, y, eps: float = 1e-12) -> Tensor:
    """Elementwise -[y log p + (1-y) log(1-p)] with probabilities clamped to
    [eps, 1-eps]; the gradient is zero where the clamp is active."""
    p = _as_tensor(p)
    y = np.asarray(y, dtype=np.float64)
    clamped = np.clip(p.values, eps, 1.0 - eps)
    inside = (p.values > eps) & (p.values < 1.0 - eps)

    def backward(g):
        return (g * ((-y / clamped + (1.0 - y) / (1.0 - clamped)) * inside),)

    values = -(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped))
    return _result(values, (p,), backward)


class ParamSet:
    """An ordered, named collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, values) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor = Tensor(np.asarray(values, dtype=np.float64).copy(), requires_grad=True)
        tensor.zero_grad()
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for tensor in self._params.values():
            tensor.zero_grad()

    def copy(self) -> "ParamSet":
        duplicate = ParamSet()
        for name, tensor in self._params.items():
            duplicate.register(name, tensor.values)
        return duplicate

    def load_values(self, other: "ParamSet"):
        """Overwrite values in place from a ParamSet with identical names/shapes."""
        if self.names() != other.names():
            raise ValueError("parameter names differ")
        for name, tensor in self._params.items():
            source = other[name]
            if source.shape != tensor.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            tensor.values = source.values.copy()
        return self

    def first_nonfinite(self):
        for name, tensor in self._params.items():
            if not np.isfinite(tensor.values).all():
                return name
        return None
