"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every op accepts either a `Var` or a plain ndarray and builds its result
with `node`, which returns a `Var` only when at least one input is a
`Var`, so the same forward code serves both traced (training) and
untraced (map building, evaluation) paths with identical arithmetic.
"""

import numpy as np

__all__ = [
    "Var", "val", "backward", "node",
    "add", "sub", "mul", "div", "matmul",
    "exp", "log", "sqrt", "relu", "softmax",
    "reduce_sum", "reduce_mean", "reduce_max",
    "reshape", "transpose", "take",
]


class Var:
    """A node in the computation graph.

    parents is a tuple of (Var, vjp) pairs where vjp maps the output
    gradient to that parent's contribution, which `backward` unbroadcasts.
    """

    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents


def val(x):
    """Unwrap a Var (or pass a plain array/scalar through)."""
    return x.value if isinstance(x, Var) else x


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


def node(out, *inputs):
    """`out` itself when no operand is a Var, else a Var of it.

    Each input is an (operand, vjp) pair; each Var operand, in argument
    order, becomes a parent with its vjp as given (`backward` unbroadcasts).
    """
    parents = []
    for x, vjp in inputs:
        if isinstance(x, Var):
            parents.append((x, vjp))
    return Var(out, tuple(parents)) if parents else out


def add(a, b):
    return node(val(a) + val(b), (a, lambda g: g), (b, lambda g: g))


def sub(a, b):
    return node(val(a) - val(b), (a, lambda g: g), (b, lambda g: -g))


def mul(a, b):
    av, bv = val(a), val(b)
    return node(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def div(a, b):
    av, bv = val(a), val(b)
    return node(av / bv, (a, lambda g: g / bv), (b, lambda g: -g * av / (bv * bv)))


def matmul(a, b):
    """a @ b; against a shared 2-D weight b each VJP is one GEMM over the
    rows of a and g flattened to 2-D, not one GEMM per leading index."""
    av, bv = val(a), val(b)
    if bv.ndim == 2:
        rows = lambda x: x.reshape(-1, x.shape[-1])
        return node(av @ bv, (a, lambda g: (rows(g) @ bv.T).reshape(av.shape)),
                    (b, lambda g: rows(av).T @ rows(g)))
    return node(av @ bv, (a, lambda g: g @ np.swapaxes(bv, -1, -2)),
                (b, lambda g: np.swapaxes(av, -1, -2) @ g))


def exp(a):
    out = np.exp(val(a))
    return node(out, (a, lambda g: g * out))


def log(a):
    av = val(a)
    return node(np.log(av), (a, lambda g: g / av))


def sqrt(a):
    out = np.sqrt(val(a))
    return node(out, (a, lambda g: g * 0.5 / out))


def relu(a):
    av = val(a)
    return node(np.maximum(av, 0.0), (a, lambda g: g * (av > 0.0)))


def softmax(a, axis=-1):
    av = val(a)
    e = np.exp(av - np.max(av, axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    return node(out, (a, lambda g: out * (g - (g * out).sum(axis=axis, keepdims=True))))


def reduce_sum(a, axis=None, keepdims=False):
    av = val(a)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, av.shape).copy()

    return node(av.sum(axis=axis, keepdims=keepdims), (a, vjp))


def reduce_mean(a, axis=None, keepdims=False):
    av = val(a)
    n = av.size if axis is None else av.shape[axis]
    return div(reduce_sum(a, axis=axis, keepdims=keepdims), float(n))


def reduce_max(a, axis):
    """Max along one axis; gradient flows to the first argmax entry."""
    av = val(a)
    idx = np.argmax(av, axis=axis)
    out = np.take_along_axis(av, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def vjp(g):
        grad = np.zeros_like(av)
        np.put_along_axis(grad, np.expand_dims(idx, axis),
                          np.expand_dims(g, axis), axis=axis)
        return grad

    return node(out, (a, vjp)), idx


def reshape(a, shape):
    av = val(a)
    return node(av.reshape(shape), (a, lambda g: g.reshape(av.shape)))


def transpose(a, axes):
    return node(np.transpose(val(a), axes),
                (a, lambda g: np.transpose(g, np.argsort(axes))))


def take(a, indices, axis=0):
    """Gather along one axis (negative counts from the last) with integer
    indices of any shape; the VJP scatter-adds, so repeats accumulate."""
    av = val(a)
    indices = np.asarray(indices)
    at = (slice(None),) * (axis % av.ndim) + (indices,)

    def vjp(g):
        grad = np.zeros(av.shape, dtype=np.float64)
        np.add.at(grad, at, g)
        return grad

    return node(np.take(av, indices, axis=axis), (a, vjp))


def _topo_order(root):
    order, seen = [], set()
    work = [(root, False)]
    while work:
        v, expanded = work.pop()
        if expanded:
            order.append(v)
            continue
        if id(v) in seen:
            continue
        seen.add(id(v))
        work.append((v, True))
        for parent, _ in v.parents:
            if id(parent) not in seen:
                work.append((parent, False))
    return order


def backward(root):
    """Return {id(Var): gradient ndarray} for every node reachable from root.

    root must be scalar-valued (shape ()); vjp results are summed to their parents' shapes.
    """
    if np.shape(root.value) != ():
        raise ValueError("backward expects a scalar root")
    grads = {id(root): np.ones((), dtype=np.float64)}
    for v in reversed(_topo_order(root)):
        g = grads[id(v)]  # set: every node in the order is reachable from root
        for parent, vjp in v.parents:
            pg = _unbroadcast(vjp(g), parent.value.shape)
            prev = grads.get(id(parent))
            grads[id(parent)] = pg if prev is None else prev + pg
    return grads
