"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every op accepts either a `Var` or a plain ndarray and returns a `Var`
only when at least one input is a `Var`, so the same forward code serves
both traced (training) and untraced (map building, evaluation) paths
with identical arithmetic.
"""

import numpy as np

__all__ = [
    "Var", "val", "backward",
    "add", "sub", "mul", "div", "matmul",
    "exp", "log", "sqrt", "relu", "softmax",
    "reduce_sum", "reduce_mean", "reduce_max",
    "reshape", "transpose", "take",
]


class Var:
    """A node in the computation graph.

    parents is a tuple of (Var, vjp) pairs where vjp maps the output
    gradient to that parent's gradient contribution.
    """

    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def val(x):
    """Unwrap a Var (or pass a plain array/scalar through)."""
    return x.value if isinstance(x, Var) else x


def _traced(*xs):
    return any(isinstance(x, Var) for x in xs)


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _binary(a, b, out, vjp_a, vjp_b):
    parents = []
    if isinstance(a, Var):
        parents.append((a, vjp_a))
    if isinstance(b, Var):
        parents.append((b, vjp_b))
    return Var(out, tuple(parents))


def add(a, b):
    av, bv = val(a), val(b)
    out = av + bv
    if not _traced(a, b):
        return out
    av_shape, bv_shape = np.shape(av), np.shape(bv)
    return _binary(a, b, out,
                   lambda g: _unbroadcast(g, av_shape),
                   lambda g: _unbroadcast(g, bv_shape))


def sub(a, b):
    av, bv = val(a), val(b)
    out = av - bv
    if not _traced(a, b):
        return out
    av_shape, bv_shape = np.shape(av), np.shape(bv)
    return _binary(a, b, out,
                   lambda g: _unbroadcast(g, av_shape),
                   lambda g: _unbroadcast(-g, bv_shape))


def mul(a, b):
    av, bv = val(a), val(b)
    out = av * bv
    if not _traced(a, b):
        return out
    av_shape, bv_shape = np.shape(av), np.shape(bv)
    return _binary(a, b, out,
                   lambda g: _unbroadcast(g * bv, av_shape),
                   lambda g: _unbroadcast(g * av, bv_shape))


def div(a, b):
    av, bv = val(a), val(b)
    out = av / bv
    if not _traced(a, b):
        return out
    av_shape, bv_shape = np.shape(av), np.shape(bv)
    return _binary(a, b, out,
                   lambda g: _unbroadcast(g / bv, av_shape),
                   lambda g: _unbroadcast(-g * av / (bv * bv), bv_shape))


def matmul(a, b):
    av, bv = val(a), val(b)
    out = av @ bv
    if not _traced(a, b):
        return out

    def vjp_a(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        return _unbroadcast(ga, np.shape(av))

    def vjp_b(g):
        gb = np.swapaxes(av, -1, -2) @ g
        return _unbroadcast(gb, np.shape(bv))

    return _binary(a, b, out, vjp_a, vjp_b)


def exp(a):
    out = np.exp(val(a))
    if not _traced(a):
        return out
    return Var(out, ((a, lambda g: g * out),))


def log(a):
    av = val(a)
    out = np.log(av)
    if not _traced(a):
        return out
    return Var(out, ((a, lambda g: g / av),))


def sqrt(a):
    out = np.sqrt(val(a))
    if not _traced(a):
        return out
    return Var(out, ((a, lambda g: g * 0.5 / out),))


def relu(a):
    av = val(a)
    out = np.maximum(av, 0.0)
    if not _traced(a):
        return out
    mask = av > 0.0
    return Var(out, ((a, lambda g: g * mask),))


def softmax(a, axis=-1):
    av = val(a)
    shifted = av - np.max(av, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    if not _traced(a):
        return out

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return Var(out, ((a, vjp),))


def reduce_sum(a, axis=None, keepdims=False):
    av = val(a)
    out = av.sum(axis=axis, keepdims=keepdims)
    if not _traced(a):
        return out
    shape = av.shape

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return Var(out, ((a, vjp),))


def reduce_mean(a, axis=None, keepdims=False):
    av = val(a)
    n = av.size if axis is None else av.shape[axis]
    s = reduce_sum(a, axis=axis, keepdims=keepdims)
    return div(s, float(n)) if isinstance(s, Var) else s / float(n)


def reduce_max(a, axis):
    """Max along one axis; gradient flows to the first argmax entry."""
    av = val(a)
    idx = np.argmax(av, axis=axis)
    out = np.take_along_axis(av, np.expand_dims(idx, axis), axis=axis).squeeze(axis)
    if not _traced(a):
        return out, idx

    def vjp(g):
        grad = np.zeros_like(av)
        np.put_along_axis(grad, np.expand_dims(idx, axis),
                          np.expand_dims(g, axis), axis=axis)
        return grad

    return Var(out, ((a, vjp),)), idx


def reshape(a, shape):
    av = val(a)
    out = av.reshape(shape)
    if not _traced(a):
        return out
    old = av.shape
    return Var(out, ((a, lambda g: g.reshape(old)),))


def transpose(a, axes):
    av = val(a)
    out = np.transpose(av, axes)
    if not _traced(a):
        return out
    inv = np.argsort(axes)
    return Var(out, ((a, lambda g: np.transpose(g, inv)),))


def take(a, indices, axis=0):
    """Gather along one axis with integer indices (scatter-add VJP)."""
    av = val(a)
    indices = np.asarray(indices)
    out = np.take(av, indices, axis=axis)
    if not _traced(a):
        return out
    shape = av.shape

    def vjp(g):
        grad = np.zeros(shape, dtype=np.float64)
        np.add.at(grad, (slice(None),) * axis + (indices,), g)
        return grad

    return Var(out, ((a, vjp),))


def _topo_order(root):
    order, seen = [], set()
    work = [(root, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        work.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                work.append((parent, False))
    return order


def backward(root):
    """Return {id(Var): gradient ndarray} for every node reachable from root.

    root must be scalar-valued (shape ()).
    """
    if np.shape(root.value) != ():
        raise ValueError("backward expects a scalar root")
    grads = {id(root): np.ones((), dtype=np.float64)}
    for node in reversed(_topo_order(root)):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
    return grads
