"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest

from prvr import autodiff as ad


def fd_grad(fn, x, h=1e-6):
    """Central differences of a scalar-valued fn at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def analytic_grad(build, x):
    v = ad.Var(x)
    out = build(v)
    grads = ad.backward(out)
    return grads.get(id(v), np.zeros_like(x))


def check(build, x, atol=1e-7):
    got = analytic_grad(build, np.asarray(x, dtype=np.float64))
    want = fd_grad(lambda a: float(ad.val(build(ad.Var(a)))), np.asarray(x, dtype=np.float64))
    np.testing.assert_allclose(got, want, atol=atol, rtol=1e-5)


rng = np.random.default_rng(7)


def test_add_broadcast():
    b = rng.normal(size=(1, 4))
    check(lambda v: ad.reduce_sum(ad.mul(ad.add(v, b), ad.add(v, b))), rng.normal(size=(3, 4)))


def test_sub_mul_div():
    b = rng.normal(size=(3, 4)) + 3.0
    check(lambda v: ad.reduce_sum(ad.div(ad.mul(v, v), b)), rng.normal(size=(3, 4)))
    check(lambda v: ad.reduce_sum(ad.div(b, ad.add(ad.mul(v, v), 1.0))), rng.normal(size=(3, 4)))
    check(lambda v: ad.reduce_sum(ad.sub(v, ad.mul(v, 2.0))), rng.normal(size=(4,)))


def test_matmul_2d():
    b = rng.normal(size=(4, 5))
    check(lambda v: ad.reduce_sum(ad.mul(ad.matmul(v, b), ad.matmul(v, b))),
          rng.normal(size=(3, 4)))


def test_matmul_right_operand():
    a = rng.normal(size=(3, 4))
    check(lambda v: ad.reduce_sum(ad.exp(ad.matmul(a, v))), rng.normal(size=(4, 2)))


def test_matmul_shared_weight_vjps_equal_per_slice_sums():
    # against a shared 2-D weight each VJP is one GEMM over the flattened
    # rows; it equals per-slice products summed over the leading axes
    r = np.random.default_rng(3)
    a, w, g = r.normal(size=(2, 3, 4, 5)), r.normal(size=(5, 6)), r.normal(size=(2, 3, 4, 6))
    (_, vjp_a), (_, vjp_w) = ad.matmul(ad.Var(a), ad.Var(w)).parents
    want_w = sum(a[i, j].T @ g[i, j] for i in range(2) for j in range(3))
    np.testing.assert_allclose(vjp_w(g), want_w, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(vjp_a(g), g @ w.T, rtol=1e-12, atol=1e-13)


def test_exp_log_sqrt_relu():
    check(lambda v: ad.reduce_sum(ad.exp(v)), rng.normal(size=(3,)))
    check(lambda v: ad.reduce_sum(ad.log(ad.add(ad.mul(v, v), 1.0))), rng.normal(size=(3,)))
    check(lambda v: ad.reduce_sum(ad.sqrt(ad.add(ad.mul(v, v), 0.5))), rng.normal(size=(3,)))
    # keep samples away from the relu kink
    x = rng.normal(size=(6,))
    x[np.abs(x) < 0.1] += 0.5
    check(lambda v: ad.reduce_sum(ad.relu(v)), x)


def test_softmax():
    check(lambda v: ad.reduce_sum(ad.mul(ad.softmax(v, axis=-1), np.arange(5.0))),
          rng.normal(size=(5,)))
    w = rng.normal(size=(3, 4))
    check(lambda v: ad.reduce_sum(ad.mul(ad.softmax(v, axis=1), w)),
          rng.normal(size=(3, 4)))


def test_reduce_sum_mean_axes():
    check(lambda v: ad.reduce_sum(ad.mul(ad.reduce_sum(v, axis=0), np.arange(1.0, 5.0))),
          rng.normal(size=(3, 4)))
    check(lambda v: ad.reduce_sum(ad.mul(ad.reduce_mean(v, axis=1, keepdims=True), v)),
          rng.normal(size=(3, 4)))


def test_reduce_max_routes_to_argmax():
    x = np.array([[0.1, 0.9, 0.3], [0.7, 0.2, 0.2]])
    v = ad.Var(x)
    out, idx = ad.reduce_max(v, axis=1)
    assert list(idx) == [1, 0]
    grads = ad.backward(ad.reduce_sum(out))
    expected = np.zeros_like(x)
    expected[0, 1] = 1.0
    expected[1, 0] = 1.0
    np.testing.assert_array_equal(grads[id(v)], expected)


def test_reduce_max_tie_lowest_index():
    x = np.array([[0.5, 0.5, 0.2]])
    _, idx = ad.reduce_max(ad.Var(x), axis=1)
    assert idx[0] == 0


def test_reshape_transpose_take():
    check(lambda v: ad.reduce_sum(ad.mul(ad.reshape(v, (6,)), np.arange(6.0))),
          rng.normal(size=(2, 3)))
    wt = rng.normal(size=(3, 2))
    check(lambda v: ad.reduce_sum(ad.mul(ad.transpose(v, (1, 0)), wt)),
          rng.normal(size=(2, 3)))
    check(lambda v: ad.reduce_sum(ad.take(v, [0, 2, 2], axis=0)), rng.normal(size=(4, 3)))


def test_take_accumulates_repeated_indices():
    v = ad.Var(np.array([1.0, 2.0, 3.0]))
    out = ad.reduce_sum(ad.take(v, [1, 1, 1]))
    grads = ad.backward(ad.reshape(out, ()))
    np.testing.assert_array_equal(grads[id(v)], [0.0, 3.0, 0.0])


def test_untraced_passthrough_returns_ndarray():
    x = rng.normal(size=(3, 4))
    out = ad.reduce_sum(ad.mul(ad.relu(x), 2.0))
    assert isinstance(out, np.floating) or np.isscalar(out) or isinstance(out, np.ndarray)
    assert not isinstance(out, ad.Var)


def test_traced_and_untraced_forward_identical():
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(5, 3))

    def forward(a, b):
        return ad.reduce_sum(ad.softmax(ad.matmul(a, b), axis=-1), axis=0)

    raw = forward(x, w)
    traced = forward(ad.Var(x), ad.Var(w))
    np.testing.assert_array_equal(raw, ad.val(traced))


def test_backward_requires_scalar_root():
    v = ad.Var(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(v, 2.0))


def test_gradient_accumulates_over_reuse():
    x = np.array(2.0)
    v = ad.Var(x)
    out = ad.add(ad.mul(v, v), ad.mul(v, 3.0))  # x^2 + 3x -> 2x + 3 = 7
    grads = ad.backward(out)
    assert grads[id(v)] == pytest.approx(7.0)


# op -> (call on operands, operand shape tuples); the two-operand ops pair a
# 0-d and a (1, n) operand with an (m, n) one, each side traced in turn
_BROADCAST = [((), (3, 4)), ((1, 4), (3, 4)), ((3, 4), ()), ((3, 4), (1, 4))]
_UNARY = [((),), ((1, 4),), ((3, 4),)]
_CONTRACT = {
    "add": (ad.add, _BROADCAST),
    "sub": (ad.sub, _BROADCAST),
    "mul": (ad.mul, _BROADCAST),
    "div": (ad.div, _BROADCAST),
    "matmul": (ad.matmul, [((1, 3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)), ((2, 3, 4, 5), (5, 6))]),
    "exp": (ad.exp, _UNARY),
    "log": (ad.log, _UNARY),
    "sqrt": (ad.sqrt, _UNARY),
    "relu": (ad.relu, _UNARY),
    "softmax": (ad.softmax, _UNARY[1:]),
    "reduce_sum": (ad.reduce_sum, _UNARY),
    "reduce_mean": (lambda a: ad.reduce_mean(a, axis=1, keepdims=True), _UNARY[1:]),
    "reduce_max": (lambda a: ad.reduce_max(a, axis=1)[0], _UNARY[1:]),
    "reshape": (lambda a: ad.reshape(a, (-1,)), _UNARY),
    "transpose": (lambda a: ad.transpose(a, (1, 0)), _UNARY[1:]),
    "take": (lambda a: ad.take(a, [0, 0, 2], axis=-1), _UNARY[1:] + [((2, 3, 4),)]),
}


def test_contract_covers_every_op():
    assert set(_CONTRACT) == set(ad.__all__) - {"Var", "val", "backward", "node"}


@pytest.mark.parametrize("name", sorted(_CONTRACT))
def test_node_contract(name):
    op, cases = _CONTRACT[name]
    for shapes in cases:
        # positive operands keep log, sqrt and div defined
        xs = [np.abs(rng.normal(size=s)) + 0.5 for s in shapes]
        plain = op(*xs)
        assert not isinstance(plain, ad.Var)
        for i, shape in enumerate(shapes):
            args = list(xs)
            args[i] = ad.Var(xs[i])
            out = op(*args)
            np.testing.assert_array_equal(out.value, plain)
            grads = ad.backward(ad.reduce_sum(out))
            assert np.shape(grads[id(args[i])]) == shape
        if len(xs) == 2:
            vs = [ad.Var(x) for x in xs]
            assert [p for p, _ in op(*vs).parents] == vs


@pytest.mark.parametrize("axis", (0, 1, 2, -1, -2, -3))
def test_take_scatter_adds_along_any_axis(axis):
    # repeated and multi-dimensional indices along every axis, counted from
    # either end: each input cell's gradient sums the output cells that read it
    x = rng.normal(size=(2, 3, 4))
    idx = np.array([[0, 1], [1, 1]])
    out = ad.take(ad.Var(x), idx, axis=axis)
    np.testing.assert_array_equal(out.value, np.take(x, idx, axis=axis))
    g = rng.normal(size=out.value.shape)
    (_, vjp), = out.parents
    want, k = np.zeros_like(x), axis % x.ndim
    for pos in np.ndindex(*g.shape):
        src = pos[:k] + (idx[pos[k:k + 2]],) + pos[k + 2:]
        want[src] += g[pos]
    np.testing.assert_array_equal(vjp(g), want)


def test_node_unbroadcasts_and_keeps_var_order():
    a, b = ad.Var(np.ones((1, 3))), ad.Var(np.array(2.0))
    out = np.ones((2, 3))
    assert ad.node(out, (np.ones(3), lambda g: g), (1.5, lambda g: g)) is out
    v = ad.node(out, (b, lambda g: g), (np.ones(3), lambda g: g), (a, lambda g: 2.0 * g))
    assert isinstance(v, ad.Var)
    np.testing.assert_array_equal(v.value, out)
    assert [p for p, _ in v.parents] == [b, a]
    # parents keep their raw vjps; backward sums each result to its
    # parent's shape (the root passes g down to v)
    g = np.arange(6.0).reshape(2, 3)
    grads = ad.backward(ad.reduce_sum(ad.mul(v, g)))
    assert grads[id(b)].shape == () and float(grads[id(b)]) == 15.0
    np.testing.assert_array_equal(grads[id(a)], [[6.0, 10.0, 14.0]])
