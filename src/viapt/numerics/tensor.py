"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray and optionally records how it was produced
(parents + a backward rule). A tensor requires a gradient if it is trainable
or was made by a recorded node. Whether an op is recorded is decided once,
when it runs: if none of its operands requires a gradient, or recording is
switched off by no_grad(), the op returns a plain leaf with no parents and
no backward rule, so a frozen subgraph leaves no tape behind.

Calling backward() on a scalar loss sweeps the tape in reverse topological
order. A rule with several operands computes the gradient of only those
operands that require one; an interior gradient is dropped as soon as its
node's rule has run, and only trainable leaves keep one in .grad.

All ops broadcast over leading batch axes; gradients of broadcast operands
are summed back to the operand's shape.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ConfigError, DimensionError

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = 0.044715

_recording = True


@contextmanager
def no_grad():
    """Record no tape inside the block: every op returns a plain leaf, so
    activations are freed as soon as nothing else refers to them. Recording
    is restored on exit, also when the block raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    __slots__ = ("data", "grad", "trainable", "name", "_parents", "_backward")

    def __init__(self, data, trainable=False, name=None, _parents=(), _backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.trainable = trainable
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        """Trainable, or made by a recorded node."""
        return self.trainable or self._backward is not None

    def __repr__(self):
        tag = " trainable" if self.trainable else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    def __sub__(self, other):
        return add(self, neg(_wrap(other, self.dtype)))

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        backward(self)


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def constant(x, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over axes that were added or broadcast relative to shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _node(data, parents, backward) -> Tensor:
    if _recording and any(p.requires_grad for p in parents):
        return Tensor(data, _parents=parents, _backward=backward)
    return Tensor(data)


# --------------------------------------------------------------------------
# elementwise and linear-algebra primitives
# --------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g, acc: acc(a, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return _node(a.data * s, (a,), lambda g, acc: acc(a, g * s))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product; batched over leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul requires rank >= 2, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if not b.requires_grad:
            return
        if b.data.ndim == 2 and a.data.ndim > 2:
            # batched activations against a shared weight: fold the batch
            # into one GEMM instead of summing a stack of products
            k = a.data.shape[-1]
            m = g.shape[-1]
            acc(b, a.data.reshape(-1, k).T @ g.reshape(-1, m))
        else:
            acc(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(out_data, (a, b), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g, acc: acc(a, g * out_data))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g, acc: acc(a, g / a.data))


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return _node(out_data, (a,), lambda g, acc: acc(a, g * (1.0 - out_data * out_data)))


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation (smooth, numpy-only)."""
    x = a.data
    inner = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x * x * x)
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def bwd(g, acc):
        sech2 = 1.0 - t * t
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
        acc(a, g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner))

    return _node(out_data, (a,), bwd)


def softmax(a: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g, acc):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        acc(a, (g - dot) * out_data)

    return _node(out_data, (a,), bwd)


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-token layer normalization over the last axis with affine scale/shift.

    eps sits inside the square root so constant tokens normalize to zeros
    instead of dividing by zero.
    """
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def bwd(g, acc):
        reduce_axes = tuple(range(g.ndim - 1))
        if beta.requires_grad:
            acc(beta, g.sum(axis=reduce_axes))
        if gamma.requires_grad:
            acc(gamma, (g * xhat).sum(axis=reduce_axes))
        if a.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            acc(a, inv * (dxhat - m1 - xhat * m2))

    return _node(out_data, (a, gamma, beta), bwd)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution, NCHW input, OIHW kernel (im2col + matmul)."""
    bs, cin, h, wd = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channels differ: input {cin}, kernel {cin_w}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    # columns: (B, oh, ow, cin, kh, kw) gathered from strided windows
    cols = np.empty((bs, oh, ow, cin, kh, kw), dtype=x.data.dtype)
    for dy in range(kh):
        for dx in range(kw):
            cols[..., dy, dx] = xp[
                :, :, dy : dy + oh * stride : stride, dx : dx + ow * stride : stride
            ].transpose(0, 2, 3, 1)
    cols2 = cols.reshape(bs * oh * ow, cin * kh * kw)
    wflat = w.data.reshape(cout, -1)
    out_data = (cols2 @ wflat.T).reshape(bs, oh, ow, cout).transpose(0, 3, 1, 2)
    out_data = out_data + b.data.reshape(1, cout, 1, 1)

    def bwd(g, acc):
        if b.requires_grad:
            acc(b, g.sum(axis=(0, 2, 3)))
        gflat = g.transpose(0, 2, 3, 1).reshape(bs * oh * ow, cout)
        if w.requires_grad:
            acc(w, (gflat.T @ cols2).reshape(w.data.shape))
        if not x.requires_grad:
            return
        dcols = (gflat @ wflat).reshape(bs, oh, ow, cin, kh, kw)
        dxp = np.zeros_like(xp)
        for dy in range(kh):
            for dx in range(kw):
                dxp[:, :, dy : dy + oh * stride : stride, dx : dx + ow * stride : stride] += (
                    dcols[..., dy, dx].transpose(0, 3, 1, 2)
                )
        if padding:
            acc(x, dxp[:, :, padding : padding + h, padding : padding + wd])
        else:
            acc(x, dxp)

    return _node(out_data, (x, w, b), bwd)


# --------------------------------------------------------------------------
# reductions, reshaping, concatenation
# --------------------------------------------------------------------------

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g, acc):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        acc(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False))

    return _node(out_data, (a,), bwd)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.data.reshape(shape), (a,), lambda g, acc: acc(a, g.reshape(a.data.shape)))


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return _node(np.transpose(a.data, axes), (a,), lambda g, acc: acc(a, np.transpose(g, inv)))


def swap_last2(a: Tensor) -> Tensor:
    data = np.swapaxes(a.data, -1, -2)
    return _node(data, (a,), lambda g, acc: acc(a, np.swapaxes(g, -1, -2)))


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, acc):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            acc(t, g[tuple(idx)])

    return _node(out_data, tuple(tensors), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = a.data[idx]

    def bwd(g, acc):
        full = np.zeros_like(a.data)
        full[idx] = g
        acc(a, full)

    return _node(out_data, (a,), bwd)


def broadcast_batch(a: Tensor, batch: int) -> Tensor:
    """Prepend a batch axis of the given size (values shared, grads summed)."""
    out_data = np.broadcast_to(a.data, (batch,) + a.data.shape).copy()
    return _node(out_data, (a,), lambda g, acc: acc(a, g.sum(axis=0)))


def take_label(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Pick logits[i, labels[i]] for each row; used by cross-entropy."""
    n = logits.data.shape[0]
    rows = np.arange(n)
    out_data = logits.data[rows, labels]

    def bwd(g, acc):
        full = np.zeros_like(logits.data)
        full[rows, labels] = g
        acc(logits, full)

    return _node(out_data, (logits,), bwd)


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis (max treated as a constant shift)."""
    c = a.data.max(axis=-1, keepdims=True)
    shifted = a.data - c
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse

    def bwd(g, acc):
        soft = np.exp(out_data)
        acc(a, g - soft * g.sum(axis=-1, keepdims=True))

    return _node(out_data, (a,), bwd)


# --------------------------------------------------------------------------
# reverse sweep
# --------------------------------------------------------------------------

def _toposort(root: Tensor):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict:
    """Reverse topological sweep from a scalar loss.

    Accumulates into .grad of every trainable leaf reached and returns a map
    {tensor: gradient array} over them. Each interior gradient is dropped
    once its node's rule has run, so no interior node carries .grad and
    frozen tensors never get one.
    """
    if loss.data.size != 1:
        raise ConfigError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    def acc(t: Tensor, g: np.ndarray):
        key = id(t)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

    out = {}
    # a node follows all of its consumers in this order, so its gradient is
    # complete when it is reached
    for node in reversed(_toposort(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            node._backward(g, acc)
        elif node.trainable:
            node.grad = g if node.grad is None else node.grad + g
            out[node] = node.grad
    return out


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
