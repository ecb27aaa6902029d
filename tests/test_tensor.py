import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

import slm.tensor as T
from slm.encoder import pad_rows
from slm.errors import ContractError
from slm.model import select_rows
from slm.tensor import (Tensor, backward, cross_entropy, dropout, gather_elements,
                        gelu, grad_check, layer_norm, log, matmul, softmax_rows,
                        take)

from graph_census import census, topo_nodes, traced_backward


def t(data, grad=True, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


# -- forward oracles ------------------------------------------------------

def test_a_numpy_float_scalar_keeps_its_dtype():
    """``Tensor(a[j])`` holds what ``Tensor(a[j:j+1])`` holds, so a
    float64 graph takes no float32 constant from an indexed element."""
    a64 = np.random.default_rng(0).normal(size=4)
    for j in range(4):
        one, row = Tensor(a64[j]), Tensor(a64[j:j + 1])
        assert one.data.dtype == row.data.dtype == np.float64
        assert one.shape == () and one.data.reshape(1).tobytes() == \
            row.data.tobytes()
    assert Tensor(np.float32(0.1)).data.dtype == np.float32
    assert Tensor(0.1).data.dtype == np.float32     # a Python float


def test_matmul_identity():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    eye = t(np.eye(2), grad=False)
    out = matmul(a, eye)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_inner_product():
    a = t([[1.0, 2.0]])
    b = t([[3.0], [4.0]])
    assert matmul(a, b).data[0, 0] == 11.0


def test_matmul_zeros():
    out = matmul(t(np.zeros((3, 4))), t(np.random.randn(4, 2)))
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(ContractError):
        matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


def test_softmax_uniform():
    y = softmax_rows(t([0.0, 0.0, 0.0]).reshape(1, 3))
    np.testing.assert_allclose(y.data, [[1 / 3] * 3], atol=1e-7)


def test_softmax_frozen_values():
    y = softmax_rows(t([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(
        y.data, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-6)


def test_softmax_large_magnitude_no_overflow():
    y = softmax_rows(t([[1000.0, 0.0, 0.0]]))
    np.testing.assert_allclose(y.data, [[1.0, 0.0, 0.0]], atol=1e-6)
    assert np.all(np.isfinite(y.data))


def test_softmax_rows_sum_to_one_across_magnitudes():
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1.0, 1e3):
        x = t(rng.normal(size=(8, 16)) * scale)
        s = softmax_rows(x).data.sum(axis=-1)
        np.testing.assert_allclose(s, np.ones(8), atol=1e-6)


def test_layer_norm_constant_row_is_zero():
    g, b = t(np.ones(4)), t(np.zeros(4))
    y = layer_norm(t([[5.0, 5.0, 5.0, 5.0]]), g, b)
    np.testing.assert_allclose(y.data, np.zeros((1, 4)), atol=1e-3)


def test_layer_norm_two_point_row():
    g, b = t(np.ones(2)), t(np.zeros(2))
    y = layer_norm(t([[1.0, 3.0]]), g, b, eps=1e-12)
    np.testing.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_gamma_zero_gives_beta():
    g, b = t(np.zeros(3)), t([7.0, 8.0, 9.0])
    y = layer_norm(t([[1.0, 2.0, 3.0]]), g, b)
    np.testing.assert_allclose(y.data, [[7.0, 8.0, 9.0]], atol=1e-6)


def test_gelu_values():
    x = t([0.0, 1.0, 10.0, -10.0])
    y = gelu(x)
    assert y.data[0] == 0.0
    assert abs(y.data[1] - 0.8412) < 1e-3
    np.testing.assert_allclose(y.data[2], 10.0, atol=1e-4)
    np.testing.assert_allclose(y.data[3], 0.0, atol=1e-4)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-14)])
def test_gelu_without_graph_matches_graph_gelu(dtype, tol):
    """Recording a graph does not change gelu's bits, and both match the
    float64 tanh form over the whole useful input range."""
    x = np.random.default_rng(5).uniform(-12, 12, 100_000).astype(dtype)
    recorded = gelu(t(x, dtype=dtype)).data
    with T.no_grad():
        plain = gelu(t(x, dtype=dtype)).data
    assert plain.dtype == recorded.dtype == dtype
    assert np.array_equal(plain, recorded)
    xd = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    reference = 0.5 * xd * (1.0 + np.tanh(c * (xd + 0.044715 * xd ** 3)))
    assert np.max(np.abs(recorded - reference)) <= tol


def test_graph_gelu_float32_bits():
    """Pins the float32 arithmetic of gelu while a graph is recorded:
    the seeded learning check (acceptance criterion 5) depends on
    pretraining's exact bits, which cube by multiplying."""
    x = np.random.default_rng(6).uniform(-12, 12, 100_000).astype(np.float32)
    c = float(np.sqrt(2.0 / np.pi))
    expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))
    assert expected.dtype == np.float32
    assert np.array_equal(gelu(t(x)).data, expected)


def test_cross_entropy_uniform():
    loss = cross_entropy(t([0.0, 0.0, 0.0, 0.0]), 1)
    np.testing.assert_allclose(loss.data, np.log(4.0), atol=1e-6)


def test_cross_entropy_confident():
    logits = np.zeros(5, dtype=np.float32)
    logits[2] = 30.0
    assert float(cross_entropy(t(logits), 2).data) < 1e-6


def test_cross_entropy_frozen_value():
    loss = cross_entropy(t([1.0, 2.0, 3.0]), 2)
    np.testing.assert_allclose(loss.data, 0.40760596, atol=1e-5)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(t([1.0, 2.0]), 5)


def test_cross_entropy_rows_match_scalar_form():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 9)).astype(np.float32)
    targets = rng.integers(0, 9, size=6)
    batched = cross_entropy(t(logits), targets)
    per_row = [float(cross_entropy(t(logits[i]), targets[i]).data)
               for i in range(6)]
    np.testing.assert_allclose(float(batched.data), np.mean(per_row), atol=1e-6)


# -- backward oracles ------------------------------------------------------

def test_backward_sum_gives_ones():
    x = t(np.arange(6, dtype=np.float32).reshape(2, 3))
    backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_gives_2x():
    x = t([1.0, -2.0, 3.0])
    backward(T.mul(x, x).sum())
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-6)


def test_backward_requires_scalar():
    x = t([[1.0, 2.0]])
    with pytest.raises(ContractError):
        backward(x + x)


def test_backward_accumulates_over_reuse():
    x = t([2.0])
    y = (x + x).sum()
    backward(y)
    np.testing.assert_allclose(x.grad, [2.0])


def test_second_backward_over_a_consumed_graph_raises():
    """Before the sweep freed its graph, a second backward re-added the
    stale intermediate gradients: x.grad read 6, not 4."""
    x = t(np.ones(3))
    y = T.mul(x, 2.0)
    loss = y.sum()
    backward(loss)
    with pytest.raises(ContractError, match="already consumed"):
        backward(loss)
    # a new loss over a consumed node raises before any closure runs
    with pytest.raises(ContractError, match="already consumed"):
        backward(T.mul(y, x).sum())
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def _copy_accumulate(self, g, owned=False):
    """``Tensor._accumulate`` as it was before owned buffers: the first
    gradient is always copied into a fresh array of the data's layout,
    whatever ``owned`` says."""
    if self.grad is None:
        self.grad = np.empty_like(self.data)
        self.grad[...] = g
    else:
        self.grad += g


def _keep_everything_backward(loss):
    """The sweep as it was before it freed its graph: every closure runs in
    reverse topological order, and every node keeps what it holds."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)


_GRAPH = (2, 4, 4)


def _random_graph(seed):
    """Leaves and a scalar loss over a seeded random graph: shared operands
    (``a + a``, ``x * x``), tensors feeding several ops, reshape and
    swapaxes chains, a reshape feeding two ops, adds that broadcast
    either operand, row softmaxes of scaled scores plus a full-shape
    bias that requires grad (a leaf or a graph node), attention with
    dropout, 2-D and 3-D
    linears and residual norms with dropout, with one tensor as both
    operands or with a residual that takes no gradient, FFNs with one
    weight as both of theirs, heads-split linears, and embeddings whose
    tables are graph nodes or a leaf. ``add``, ``reshape`` and
    ``residual_norm`` hand a gradient buffer on to an input, so these
    are the cases where a shared buffer would show."""
    rng = np.random.default_rng(seed)
    drop = np.random.default_rng([seed, 1])
    xs = [t(rng.normal(size=_GRAPH)) for _ in range(3)]
    gamma, beta = t(rng.normal(size=4)), t(rng.normal(size=4))
    bias = t(rng.normal(size=_GRAPH))
    weight = t(np.random.default_rng([seed, 2]).normal(size=(4, 4)))
    leaves = xs + [gamma, beta, bias, weight]
    const = Tensor(np.random.default_rng([seed, 3]).normal(size=_GRAPH)
                   .astype(np.float32))
    ids = list(np.random.default_rng([seed, 4]).integers(4, size=(3, 2, 4)))
    pool = xs + [xs[0] + xs[0], T.mul(xs[1], xs[1])]

    def heads(x):
        return x.reshape(2, 1, 4, 4)

    def twice(r):
        return (r + T.mul(r, 0.5)).reshape(*_GRAPH)

    for _ in range(14):
        a, b = (pool[i] for i in rng.integers(len(pool), size=2))
        ops = [
            lambda: a + b,
            lambda: a + a,
            lambda: a + beta,
            lambda: T.add(gamma, a),
            lambda: T.mul(T.mul(a, b), 0.5),
            lambda: T.mul(matmul(a, b), 0.25),
            lambda: a.reshape(8, 4).swapaxes(0, 1).reshape(*_GRAPH),
            lambda: a.swapaxes(1, 2).reshape(4, 8).reshape(*_GRAPH),
            lambda: twice(a.reshape(8, 4)),
            lambda: gelu(a),
            lambda: layer_norm(a, gamma, beta),
            lambda: softmax_rows(T.mul(a, 0.5) + bias),
            lambda: softmax_rows(T.mul(a, 0.5) + b),
            lambda: dropout(a, 0.25, drop),
            lambda: T.attention(heads(a), heads(b), heads(a), 0.5,
                                p=0.25, rng=drop),
            lambda: T.linear(a, weight, beta),
            lambda: T.linear(a.reshape(8, 4), weight, gamma).reshape(*_GRAPH),
            lambda: T.residual_norm(a, b, gamma, beta, 0.25, drop),
            lambda: T.residual_norm(a, b, gamma, beta),
            lambda: T.residual_norm(a, a, gamma, beta),
            lambda: T.residual_norm(const, b, gamma, beta),
            lambda: T.feed_forward(a, weight, beta, weight, gamma),
            lambda: T.linear(a, weight, gamma, heads=2).reshape(*_GRAPH),
            lambda: T.embedding([a.reshape(8, 4), weight, b.reshape(8, 4)],
                                ids, gamma, beta, 0.25, drop),
        ]
        pool.append(ops[rng.integers(len(ops))]())
    loss = cross_entropy(pool[-1].reshape(8, 4), rng.integers(4, size=8))
    for node in pool[3:-1]:
        w = Tensor(rng.normal(size=_GRAPH).astype(np.float32))
        loss = loss + T.mul(node, w).mean()
    return leaves, loss


@pytest.mark.parametrize("seed", range(12))
def test_freeing_sweep_keeps_the_keep_everything_sweeps_leaf_grads(
        seed, monkeypatch):
    leaves, loss = _random_graph(seed)
    assert np.isfinite(loss.data)
    nodes = topo_nodes(loss)
    backward(loss)
    with monkeypatch.context() as m:
        m.setattr(Tensor, "_accumulate", _copy_accumulate)
        want, want_loss = _random_graph(seed)
        _keep_everything_backward(want_loss)

    got = [leaf.grad for leaf in leaves]
    for g, w in zip(got, want):
        if w.grad is None:
            assert g is None
        else:
            assert g.dtype == w.grad.dtype and g.shape == w.grad.shape
            assert g.tobytes() == w.grad.tobytes()
    # every non-leaf dropped its gradient and its inputs
    leaf_ids = {id(leaf) for leaf in leaves}
    for node in nodes:
        if id(node) not in leaf_ids:
            assert node.grad is None and node._prev == ()
    # each leaf owns its gradient outright
    held = [g for g in got if g is not None]
    for i, a in enumerate(held):
        for b in held[i + 1:]:
            assert not np.shares_memory(a, b)
    # a second sweep raises and leaves every leaf gradient as it was
    before = [None if g is None else g.tobytes() for g in got]
    with pytest.raises(ContractError, match="already consumed"):
        backward(loss)
    assert [None if leaf.grad is None else leaf.grad.tobytes()
            for leaf in leaves] == before


def test_composed_matmul_softmax_ce_matches_fd_float32():
    # float32 central differences sit near the 1e-3 roundoff floor, so
    # this fixes a seed where the probe is well conditioned; float64
    # sweeps elsewhere cover the same kernels far below tolerance.
    rng = np.random.default_rng(5)
    a = t(rng.normal(size=(3, 3)).astype(np.float32))
    w = t(rng.normal(size=(3, 3)).astype(np.float32))

    def f():
        logits = matmul(a, w)
        return cross_entropy(logits, np.array([0, 2, 1]))

    assert grad_check(f, [a, w], eps=1e-3) < 1e-3


def test_random_kernel_compositions_match_fd():
    rng = np.random.default_rng(11)
    x = t(rng.normal(size=(4, 12)).astype(np.float64), dtype=np.float64)
    w1 = t(rng.normal(size=(12, 8)).astype(np.float64), dtype=np.float64)
    g = t(np.ones(8, dtype=np.float64), dtype=np.float64)
    b = t(np.zeros(8, dtype=np.float64), dtype=np.float64)
    w2 = t(rng.normal(size=(8, 5)).astype(np.float64), dtype=np.float64)

    def f():
        h = gelu(matmul(x, w1))
        h = layer_norm(h, g, b)
        p = softmax_rows(matmul(h, w2))
        picked = gather_elements(p, np.array([0, 1, 2, 3]))
        return T.mul(log(picked), -1.0).mean()

    assert grad_check(f, [x, w1, g, b, w2], eps=1e-5) < 1e-6


def test_take_backward_accumulates_repeats():
    table = t(np.arange(12, dtype=np.float32).reshape(4, 3))
    out = take(table, np.array([1, 1, 3]))
    backward(out.sum())
    expect = np.zeros((4, 3), dtype=np.float32)
    expect[1] = 2.0
    expect[3] = 1.0
    np.testing.assert_array_equal(table.grad, expect)


@pytest.mark.parametrize("axis,size", [(0, 60), (1, 60), (0, 0), (1, 0)],
                         ids=["axis0", "axis1", "axis0-empty", "axis1-empty"])
def test_take_backward_matches_add_at(axis, size):
    """Two takes of one table, random repeated (and negative) indices:
    the second backward adds into the first one's gradient. ``take``
    gathers along axis 0, so axis 1 gathers from the table with its
    first two axes swapped."""
    rng = np.random.default_rng(13)
    table = t(rng.normal(size=(7, 9, 3)), dtype=np.float64)
    n = table.shape[axis]
    idx = [rng.integers(-n, n, size=size) for _ in range(2)]
    moved = table if axis == 0 else table.swapaxes(0, 1)
    outs = [take(moved, i) for i in idx]
    gs = [rng.normal(size=o.shape) for o in outs]
    backward(T.mul(outs[0], Tensor(gs[0])).sum()
             + T.mul(outs[1], Tensor(gs[1])).sum())
    expect = np.zeros_like(table.data)
    for i, g in zip(idx, gs):
        np.add.at(np.moveaxis(expect, axis, 0), i, g)
    np.testing.assert_allclose(table.grad, expect, rtol=0, atol=1e-12)


def test_broadcast_add_mul_grads_match_fd():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(3, 4)).astype(np.float64), dtype=np.float64)
    bias = t(rng.normal(size=(4,)).astype(np.float64), dtype=np.float64)

    def f():
        return T.mul(x + bias, x + bias).mean()

    assert grad_check(f, [x, bias], eps=1e-6) < 1e-6


def test_stacked_matmul_grads_match_fd():
    rng = np.random.default_rng(9)
    a = t(rng.normal(size=(2, 3, 4)).astype(np.float64), dtype=np.float64)
    b = t(rng.normal(size=(4, 5)).astype(np.float64), dtype=np.float64)

    def f():
        return matmul(a, b).mean()

    assert grad_check(f, [a, b], eps=1e-6) < 1e-6


def test_grad_check_quadratic_tight():
    x = t(np.array([1.0, 2.0, 3.0], dtype=np.float64), dtype=np.float64)

    def f():
        return T.mul(x, x).sum()

    assert grad_check(f, [x], eps=1e-6) < 1e-6


def test_grad_check_constant_zero_analytic():
    x = t(np.array([1.0, 2.0], dtype=np.float64), dtype=np.float64)
    c = Tensor(np.array(5.0, dtype=np.float64))

    def f():
        return T.mul(x, 0.0).sum() + c

    assert grad_check(f, [x], eps=1e-6) < 1e-6


def _cube_sum(x, grad_scale=1.0):
    """sum(x ** 3) as a test-local op whose backward scales the true
    gradient, 3 x^2, by ``grad_scale``."""
    def bw(out):
        x._accumulate(grad_scale * 3.0 * x.data * x.data * out.grad,
                      owned=True)

    return T._make(np.asarray((x.data ** 3).sum()), (x,), bw)


def test_grad_check_differences_a_curved_entry_again():
    """Near a cubic's inflection point the gradient is small against the
    curvature: the two-point difference at eps misses it by more than
    the tolerance, the four-point one is exact on a cubic up to
    rounding, and a gradient 1% off still fails."""
    x0, eps = 1e-3, 1e-4
    x = t([x0], dtype=np.float64)
    two_point = ((x0 + eps) ** 3 - (x0 - eps) ** 3) / (2 * eps)
    assert abs(two_point - 3 * x0 ** 2) / (3 * x0 ** 2) > T.GRADCHECK_TOL
    assert grad_check(lambda: _cube_sum(x), [x], eps) < 1e-9
    assert grad_check(lambda: _cube_sum(x, 1.01), [x], eps) >= T.GRADCHECK_TOL


# -- engine behavior -------------------------------------------------------

def test_forward_bitwise_deterministic():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(16, 32)).astype(np.float32)
    w = rng.normal(size=(32, 32)).astype(np.float32)

    def run():
        h = gelu(matmul(Tensor(x), Tensor(w)))
        return softmax_rows(h).data.copy()

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_no_grad_skips_recording():
    x = t([1.0, 2.0])
    with T.no_grad():
        y = (x + x).sum()
    assert y._backward is None and not y.requires_grad


def test_dropout_identity_when_eval():
    """Eval passes no rng: dropout hands its input back, drawing nothing."""
    x = t(np.ones((4, 4)))
    assert dropout(x, 0.5, None) is x
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert dropout(x, 0.0, rng) is x
    assert rng.bit_generator.state == state


def test_dropout_scales_kept_units():
    rng = np.random.default_rng(1)
    x = t(np.ones((2000,)))
    y = dropout(x, 0.25, rng)
    kept = y.data[y.data > 0]
    np.testing.assert_allclose(kept, 1 / 0.75, atol=1e-6)
    assert abs(kept.size / 2000 - 0.75) < 0.05
    backward(y.sum())
    np.testing.assert_allclose(x.grad[y.data > 0], 1 / 0.75, atol=1e-6)
    np.testing.assert_allclose(x.grad[y.data == 0], 0.0, atol=1e-6)


# -- one kernel per op: scalar operands and the one-row cross-entropy ------

def test_scalar_operand_keeps_float32_bit_for_bit():
    x32 = np.random.default_rng(11).normal(size=(4, 5)).astype(np.float32)
    for scale in (0.1, np.float64(0.1)):
        x = t(x32)
        out = T.mul(x, scale)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == (x32 * np.float32(0.1)).tobytes()
        backward(out.sum())
        assert x.grad.tobytes() == np.full_like(x32, np.float32(0.1)).tobytes()
    shifted = T.add(t(x32), 0.1)
    assert shifted.data.dtype == np.float32
    assert shifted.data.tobytes() == (x32 + np.float32(0.1)).tobytes()


def test_scalar_operand_stays_exact_in_float64():
    x64 = np.random.default_rng(12).normal(size=(4, 5))
    x = t(x64, dtype=np.float64)
    out = T.mul(x, 0.1)
    assert out.data.dtype == np.float64
    assert out.data.tobytes() == (x64 * 0.1).tobytes()
    backward(out.sum())
    assert x.grad.tobytes() == np.full_like(x64, 0.1).tobytes()
    assert T.add(x, 0.1).data.tobytes() == (x64 + 0.1).tobytes()
    assert (x - 0.1).data.tobytes() == (x64 - 0.1).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_dim_cross_entropy_is_the_one_row_call_bit_for_bit(dtype):
    logits = np.random.default_rng(13).normal(size=9).astype(dtype)
    flat = t(logits, dtype=dtype)
    row = t(logits.reshape(1, 9), dtype=dtype)
    loss_flat = cross_entropy(flat, 4)
    loss_row = cross_entropy(row, np.array([4]))
    assert loss_flat.data.dtype == dtype
    assert loss_flat.data.tobytes() == loss_row.data.tobytes()
    backward(loss_flat)
    backward(loss_row)
    assert flat.grad.tobytes() == row.grad.reshape(9).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_cross_entropy_is_each_slice_bit_for_bit(dtype):
    """[k, m, n] logits give each entry the loss and the gradient of the
    2-D call on its slice, whatever weight its mean gets downstream."""
    rng = np.random.default_rng(14)
    logits = rng.normal(scale=3.0, size=(3, 5, 7)).astype(dtype)
    targets = rng.integers(0, 7, size=(3, 5))
    weights = rng.normal(size=3).astype(dtype)
    stacked = t(logits, dtype=dtype)
    loss = cross_entropy(stacked, targets)
    assert loss.shape == (3, 1, 1)
    backward(T.mul(loss, Tensor(weights.reshape(3, 1, 1))).sum())
    for j in range(3):
        row = t(logits[j], dtype=dtype)
        one = cross_entropy(row, targets[j])
        assert loss.data[j, 0, 0].tobytes() == one.data.tobytes()
        backward(T.mul(one, Tensor(np.asarray(weights[j]))))
        assert stacked.grad[j].tobytes() == row.grad.tobytes()


def test_per_example_take_is_each_example_take():
    """``select_rows`` with [B, R] positions gives each example its own
    rows, and the backward adds each example's gradient into its own
    slice, repeats summed, as a 1-D take of that example does."""
    rng = np.random.default_rng(15)
    table = t(rng.normal(size=(3, 6, 4)), dtype=np.float64)
    idx = rng.integers(0, 6, size=(3, 5))
    idx[:, 1] = idx[:, 3]
    out = select_rows(table, idx)
    g = rng.normal(size=out.shape)
    backward(T.mul(out, Tensor(g)).sum())
    for b in range(3):
        one = t(table.data[b], dtype=np.float64)
        backward(T.mul(take(one, idx[b]), Tensor(g[b])).sum())
        assert out.data[b].tobytes() == table.data[b][idx[b]].tobytes()
        assert table.grad[b].tobytes() == one.grad.tobytes()


@pytest.mark.parametrize("groups", [[[2, 0], [1]], [[0, 1, 2]]],
                         ids=["two-groups", "whole-batch"])
def test_fan_out_views_share_the_data_and_add_in_example_order(groups):
    """Each group's view is the parameter, stacked without a copy; the
    parameter's gradient is the examples' contributions added one by
    one in example order, after what it held before."""
    rng = np.random.default_rng(16)
    w = t(rng.normal(size=(4, 3)).astype(np.float32))
    b = t(rng.normal(size=3).astype(np.float32))
    w.grad = rng.normal(size=(4, 3)).astype(np.float32)
    held = w.grad.copy()
    groups = [np.array(idx) for idx in groups]
    views, b_views = T.fan_out([w, b], groups)
    assert [v.shape for v in views] == [(len(i), 4, 3) for i in groups]
    assert [v.shape for v in b_views] == [(len(i), 1, 3) for i in groups]
    assert all(np.shares_memory(v.data, w.data) for v in views)
    g = rng.normal(size=(3, 4, 3)).astype(np.float32)
    loss = None
    for v, idx in zip(views, groups):
        term = T.mul(v, Tensor(g[idx])).sum()
        loss = term if loss is None else loss + term
    backward(loss)
    expect = held
    for row in g:
        expect = expect + row
    assert w.grad.tobytes() == expect.tobytes()
    with pytest.raises(ContractError):
        T.fan_out([w], [np.array([0, 2])])


@pytest.mark.parametrize("cols", [[0, 3], [-1, 0]])
def test_gather_elements_rejects_columns_outside_the_row(cols):
    with pytest.raises(IndexError):
        gather_elements(t(np.zeros((2, 3))), np.array(cols))


# -- kernels that write into their own buffers, bit for bit ---------------
# softmax_rows, gelu, layer_norm and dropout compute in
# place in arrays they allocate. Each must give exactly the bits of the
# plain expressions below (the kernels before that rewrite): pretraining's
# bits, and with them the seeded learning check, hang on them. Shapes are
# the learning check's: batch 4, 4 heads, 64 tokens, hidden 128, ffn 256.

_C = float(np.sqrt(2.0 / np.pi))


def _f32(shape, seed, scale=1.0):
    return (np.random.default_rng(seed).normal(size=shape)
            * scale).astype(np.float32)


def _run(op, arrays, g):
    """``op`` on leaves sharing ``arrays``, then its own backward from the
    upstream gradient ``g``: (output, leaf gradients)."""
    leaves = [t(a, dtype=a.dtype) for a in arrays]
    out = op(*leaves)
    out.grad = g
    out._backward(out)
    return out.data, [leaf.grad for leaf in leaves]


def _assert_bits(got, want):
    (y, grads), (y_want, grads_want) = got, want
    assert y.dtype == y_want.dtype and np.array_equal(y, y_want)
    assert len(grads) == len(grads_want)
    for a, b in zip(grads, grads_want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _softmax_oracle(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y, [(g - dot) * y]


def _gelu_oracle(x, g):
    th = np.tanh(_C * (x + 0.044715 * (x * x * x)))
    y = 0.5 * x * (1.0 + th)
    sech2 = 1.0 - th * th
    local = 0.5 * (1.0 + th) + 0.5 * x * sech2 * _C * (
        1.0 + 3 * 0.044715 * x ** 2)
    return y, [g * local]


def _layer_norm_oracle(x, gamma, beta, g, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma + beta
    red = tuple(range(g.ndim - 1))
    d = x.shape[-1]
    gh = g * gamma
    t1 = gh.sum(axis=-1, keepdims=True)
    t2 = (gh * xhat).sum(axis=-1, keepdims=True)
    gx = (gh - t1 / d - xhat * t2 / d) * inv
    return y, [gx, (g * xhat).sum(axis=red), g.sum(axis=red)]


def test_softmax_rows_bits_match_the_plain_expression():
    x = _f32((4, 4, 64, 64), 20, scale=4.0)
    x[1, :, :, 40:] = -1e9
    g = _f32(x.shape, 21)
    _assert_bits(_run(softmax_rows, [x], g), _softmax_oracle(x, g))


def test_gelu_bits_match_the_plain_expression():
    x = _f32((4, 64, 256), 22, scale=3.0)
    g = _f32(x.shape, 23)
    _assert_bits(_run(gelu, [x], g), _gelu_oracle(x, g))


@pytest.mark.parametrize("hidden", [128, 96])
def test_layer_norm_bits_match_the_plain_expression(hidden):
    # 96 is no power of two, so dividing by the width is not a product
    x = _f32((4, 64, hidden), 24, scale=2.0) - 0.5
    gamma, beta = _f32((hidden,), 25), _f32((hidden,), 26)
    g = _f32(x.shape, 27)
    _assert_bits(_run(layer_norm, [x, gamma, beta], g),
                 _layer_norm_oracle(x, gamma, beta, g))


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_dropout_bits_match_the_plain_expression(p):
    x = _f32((4, 4, 64, 64), 28)
    g = _f32(x.shape, 29)
    keep = T._keep_mask(np.random.default_rng(30), x.shape, p).astype(
        np.float32) / (1.0 - p)
    got = _run(lambda a: dropout(a, p, np.random.default_rng(30)), [x], g)
    _assert_bits(got, (x * keep, [g * keep]))


def _padding_bias(lens, width):
    pad = np.arange(width)[None, :] >= np.asarray(lens)[:, None]
    return np.where(pad, -1e9, 0.0).astype(np.float32)[:, None, None, :]


def _causal_bias(width):
    return np.triu(np.full((width, width), -1e9, dtype=np.float32),
                   k=1)[None, None]


# -- attention as one blocked op -------------------------------------------
# ``attention`` must give the bits of the op chain multi_head_attention ran
# before it: output, gradients and the rng's state after the dropout draw.
# With dropout the chain multiplies the probabilities by the 0/1 keep mask
# that ``tensor._keep_mask`` draws, and the context by 1 / (1 - p).

def _keep_floats(shape, p, rng, dtype, rows=None):
    """A dropout's keep mask over ``shape`` as 0 and 1 in ``dtype``, drawn
    through ``tensor._keep_mask``. With ``rows`` ([B, R] positions on the
    next-to-last axis) it draws the masks of those rows only and keeps
    every other element."""
    if rows is None:
        return T._keep_mask(rng, shape, p).astype(dtype)
    keep = np.ones(shape, dtype)
    bsz, heads = shape[:2]
    keep[np.arange(bsz)[:, None, None], np.arange(heads)[:, None],
         rows[:, None, :]] = T._keep_mask(
        rng, (bsz, heads, rows.shape[1], shape[-1]), p)
    return keep


def _float_mask_dropout(x, p, rng):
    """``tensor.dropout`` as it was before one-byte masks: the graph keeps
    the scaled float mask the forward multiplied by."""
    if rng is None or p <= 0.0:
        return x
    keep = _keep_floats(x.shape, p, rng, x.data.dtype)
    keep /= 1.0 - p

    def bw(out):
        if x.requires_grad:
            x._accumulate(out.grad * keep, owned=True)

    return T._make(x.data * keep, (x,), bw)


def _attention_chain(q, k, v, scale, bias=None, p=0.0, rng=None, rows=None):
    """The chain: scores matmul, scale, mask, row softmax, the product by
    the 0/1 keep mask, the context matmul, the context's product by
    1 / (1 - p) and the heads merged, one graph node each. With ``rows``
    it runs every query row, drops out only those rows and then keeps
    them (``select_rows``), which the row-selected op must equal."""
    scores = T.mul(matmul(q, k.swapaxes(-1, -2)), scale)
    if bias is not None:
        scores = scores + bias
    probs = softmax_rows(scores)
    drop = rng is not None and p > 0.0
    if drop:
        probs = T.mul(probs, Tensor(_keep_floats(
            probs.shape, p, rng, probs.data.dtype, rows)))
    ctx = matmul(probs, v)
    if drop:
        ctx = T.mul(ctx, np.divide(1.0, 1.0 - p, dtype=ctx.data.dtype))
    ctx = ctx.swapaxes(1, 2)
    out = ctx.reshape(ctx.shape[0], ctx.shape[1], -1)
    return out if rows is None else select_rows(out, rows)


def _attention_run(op, arrays, g, bias, p, rows):
    """``op`` on leaves holding ``arrays`` (q, k, v) and a seeded rng,
    backward from the upstream gradient ``g``: the output, the q, k and
    v gradients and the rng's state."""
    leaves = [t(a, dtype=a.dtype) for a in arrays]
    rng = np.random.default_rng(41)
    out = op(*leaves, 1.0 / np.sqrt(arrays[0].shape[-1]),
             None if bias is None else Tensor(bias), p, rng, rows)
    backward(T.mul(out, Tensor(g)).sum())
    return [out.data] + [leaf.grad for leaf in leaves], rng.bit_generator.state


def _read_rows(lengths, seed):
    """[B, R] rows as pretraining asks for them: [CLS] and a sorted set of
    positions below each example's length, padded by ``pad_rows``, and
    a mask that is False on the padding, where the upstream gradient is
    zero."""
    rng = np.random.default_rng(seed)
    positions = [np.unique(np.r_[0, rng.integers(
        0, n, size=int(rng.integers(1, 16)))]) for n in lengths]
    rows = pad_rows(positions)
    real = np.arange(rows.shape[1]) < np.array([[len(p)]
                                                for p in positions])
    return rows, real


def _tiny_attention(length, seed):
    """The tiny profile's last-layer attention: q, k and v of
    [8, 2, ``length``, 32], the padding lengths of a batch whose longest
    example is ``length``, and its read rows."""
    rng = np.random.default_rng(seed)
    arrays = [_f32((8, 2, length, 32), seed + 1 + i, scale=2.0)
              for i in range(3)]
    lengths = [length] + [int(n) for n in rng.integers(4, length, size=7)]
    return arrays, lengths, _read_rows(lengths, seed + 4)


@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("mask,rows", [("padding", False), ("causal", False),
                                       ("none", False), ("padding", True),
                                       ("none", True)])
@pytest.mark.parametrize("p", [0.0, 0.1])
def test_attention_is_the_op_chain_bit_for_bit(blocks, mask, rows, p,
                                               monkeypatch):
    """Without rows the op is the chain. With rows it is the chain over
    every query row, dropping out only those rows, followed by those
    rows: at the tiny profile's last-layer shapes, [8, 2, 52 or 256, 32], its rows padded as
    ``pad_rows`` pads them and no gradient on the padding."""
    if rows:
        length = 52 if blocks == "one" else 256
        arrays, lengths, (rows, real) = _tiny_attention(length, 42)
    else:
        length, lengths, rows = 32, [32, 20, 7], None
        arrays = [_f32((3, 2, length, 8), 42 + i, scale=2.0)
                  for i in range(3)]
    bsz, heads, _, dh = arrays[0].shape
    if blocks == "several":
        # four float32 slices per block
        monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES",
                            4 * length * length * 4)
    bias = {"padding": _padding_bias(lengths, length),
            "causal": _causal_bias(length), "none": None}[mask]
    width = length if rows is None else rows.shape[1]
    g = _f32((bsz, width, heads * dh), 45)
    if rows is not None:
        g *= real[:, :, None]
    got, got_state = _attention_run(T.attention, arrays, g, bias, p, rows)
    want, want_state = _attention_run(_attention_chain, arrays, g, bias, p,
                                      rows)
    _assert_same_bytes(got, want)
    assert got_state == want_state


@pytest.mark.parametrize("p", [0.0, 0.1])
def test_one_query_row_without_a_graph_is_the_chain(p, monkeypatch):
    """The cached greedy decode: one new query row per sequence against
    the keys so far, no graph recorded."""
    monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 3 * 12 * 4)
    q = Tensor(_f32((4, 2, 1, 8), 46))
    k, v = Tensor(_f32((4, 2, 12, 8), 47)), Tensor(_f32((4, 2, 12, 8), 48))
    bias = Tensor(_padding_bias([12, 9, 5, 1], 12))
    outs, states = [], []
    for op in (T.attention, _attention_chain):
        rng = np.random.default_rng(49)
        with T.no_grad():
            out = op(q, k, v, 0.25, bias, p, rng)
        assert out._backward is None
        outs.append(out.data)
        states.append(rng.bit_generator.state)
    assert outs[0].shape == (4, 1, 16)
    assert outs[0].tobytes() == outs[1].tobytes()
    assert states[0] == states[1]


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_grads_match_fd(p, monkeypatch):
    monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 2 * 4 * 5 * 8)
    rng = np.random.default_rng(50)
    q, k, v = (t(rng.normal(size=(2, 3, n, 3)), dtype=np.float64)
               for n in (4, 5, 5))
    bias = rng.normal(size=(2, 1, 1, 5))
    bias[1, ..., 3:] = -1e9
    bias = Tensor(bias)
    rows = np.array([[0, 2, 3], [3, 0, 1]])
    w = Tensor(rng.normal(size=(2, 3, 9)))

    def f():
        drop = np.random.default_rng(51)     # the same mask on every call
        return T.mul(T.attention(q, k, v, 0.7, bias, p, drop, rows), w).sum()

    assert grad_check(f, [q, k, v], eps=1e-5) < 1e-6


@pytest.mark.parametrize("rows", [False, True], ids=["all-rows", "rows"])
def test_attention_with_dropout_grads_match_fd_on_a_fixed_mask(rows,
                                                              monkeypatch):
    """Float64 differences through the dropped probabilities and the
    context's 1 / (1 - p), one mask for every call, in several blocks."""
    monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 2 * 6 * 6 * 8)
    rng = np.random.default_rng(180)
    q, k, v = (t(rng.normal(size=(2, 2, 6, 3)), dtype=np.float64)
               for _ in range(3))
    bias = Tensor(_padding_bias([6, 4], 6).astype(np.float64))
    rows = np.array([[5, 0, 2], [1, 3, 4]]) if rows else None
    r = 6 if rows is None else 3
    keep = T._keep_mask(np.random.default_rng(181), (4, r, 6), 0.4)
    assert keep.any() and not keep.all()
    w = Tensor(rng.normal(size=(2, r, 6)))

    def f():
        drop = np.random.default_rng(181)    # the mask above on every call
        return T.mul(T.attention(q, k, v, 0.7, bias, 0.4, drop, rows),
                     w).sum()

    assert grad_check(f, [q, k, v], eps=1e-5) < 1e-6


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_keep_mask_drops_at_rate_p(p):
    """Over 2^20 elements the dropped share lies within 5 sigma of p."""
    n = 1 << 20
    keep = T._keep_mask(np.random.default_rng(182), (1024, 1024), p)
    assert keep.dtype == np.bool_ and keep.shape == (1024, 1024)
    dropped = n - np.count_nonzero(keep)
    assert abs(dropped - n * p) < 5 * np.sqrt(n * p * (1 - p))


class _RawLanes:
    """A stand-in rng whose raw 64-bit words hold the given 32-bit
    lanes."""

    def __init__(self, lanes):
        self.bit_generator = self
        self.words = np.asarray(lanes, np.uint32).view(np.uint64)

    def random_raw(self, size):
        return self.words[:size]


@pytest.mark.parametrize("p,threshold", [(0.0, 0), (0.3, 1288490189),
                                         (1 - 2.0 ** -40, 2 ** 32 - 1)])
def test_keep_mask_keeps_a_lane_at_the_threshold(p, threshold):
    """The threshold is ceil(p * 2^32): a lane equal to it is kept and one
    below it dropped. p = 0 keeps every lane; a p whose threshold rounds
    up to 2^32 is clamped into uint32 and keeps the top lane only."""
    assert threshold == min(np.ceil(p * 2.0 ** 32), 2 ** 32 - 1)
    lanes = [0, max(threshold - 1, 0), threshold, min(threshold + 1,
                                                     2 ** 32 - 1)]
    keep = T._keep_mask(_RawLanes(lanes), (4,), p)
    assert keep.tolist() == [lane >= threshold for lane in lanes]
    assert keep[2] and (p == 0 or not keep[1])


@pytest.mark.parametrize("shape", [(3, 5, 7), (4, 6), (1,), (0, 3)],
                         ids=["odd", "even", "one", "empty"])
def test_keep_mask_reads_one_lane_per_element(shape):
    """Element i is kept where lane i of ceil(n / 2) raw words is at least
    ceil(p * 2^32), in C order, and the rng ends where that raw draw
    leaves it, an odd count's spare lane unread; ``out`` gets the same
    mask."""
    n = int(np.prod(shape))
    words = -(-n // 2)
    raw = np.random.default_rng(184)
    lanes = raw.bit_generator.random_raw(words).view(np.uint32)[:n]
    want = (lanes >= np.ceil(0.3 * 2.0 ** 32)).reshape(shape)
    for out in (None, np.empty(shape, bool)):
        rng = np.random.default_rng(184)
        keep = T._keep_mask(rng, shape, 0.3, out=out)
        assert keep.tolist() == want.tolist()
        assert out is None or keep is out
        assert rng.bit_generator.state == raw.bit_generator.state


@pytest.mark.parametrize("case", ["bias-requires-grad", "row-negative",
                                  "row-past-the-end", "rows-1d",
                                  "rows-wrong-batch", "row-repeated"])
def test_attention_rejects_a_trained_bias_and_bad_rows(case):
    q, k, v = (t(np.zeros((2, 2, 4, 3))) for _ in range(3))
    bias, rows = None, None
    if case == "bias-requires-grad":
        bias = t(np.zeros((2, 1, 1, 4)))
    else:
        rows = {"row-negative": np.array([[0, -1], [0, 1]]),
                "row-past-the-end": np.array([[0, 4], [0, 1]]),
                "rows-1d": np.array([0, 1]),
                "rows-wrong-batch": np.array([[0, 1]]),
                "row-repeated": np.array([[0, 1], [2, 2]])}[case]
    with pytest.raises(ContractError):
        T.attention(q, k, v, 0.5, bias, rows=rows)


def _held_array_bytes(build):
    """Bytes of numpy data that ``build()``'s result keeps alive, its own
    data left out."""
    gc.collect()
    tracemalloc.start()
    try:
        out = build()
        # numpy traces its data buffers in a domain of their own
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    return sum(trace.size for trace in arrays.traces) - out.data.nbytes


@pytest.mark.parametrize("p", [0.0, 0.1])
def test_attention_keeps_row_statistics_and_a_byte_mask(p):
    """For its backward the op keeps each query row's softmax max and
    sum (8 bytes per row) and, with dropout, the keep mask (1 byte per
    score); the chain kept the scores, the probabilities, the float
    mask and the dropped probabilities, 16 bytes per score with
    dropout."""
    bsz, heads, length, dh = 2, 4, 128, 8
    q, k, v = (t(_f32((bsz, heads, length, dh), 52 + i)) for i in range(3))
    bias = Tensor(_padding_bias([128, 77], length))
    query_rows = bsz * heads * length
    scores = query_rows * length

    def run(op):
        return op(q, k, v, 0.25, bias, p, np.random.default_rng(55))

    held = _held_array_bytes(lambda: run(T.attention))
    # 64 bytes for 0-d arrays such as the scale
    assert held <= (1 if p else 0) * scores + 8 * query_rows + 64
    if p:
        assert _held_array_bytes(lambda: run(_attention_chain)) >= 16 * scores


def test_two_attention_ops_in_one_graph_are_the_chain_bit_for_bit(
        monkeypatch):
    """Both ops are recorded before the sweep walks either, so each
    backward must rebuild its own probabilities from its own row
    statistics and keep mask: a causal self-attention, then an op that
    reads the same leaves as queries, keys and values in another order,
    with a padding mask and selected rows, whose oracle is the chain
    over every row followed by the rows. Dropout on, several blocks, at
    the tiny profile's stories shape."""
    length = 52
    arrays, lengths, (rows, real) = _tiny_attention(length, 53)
    bsz, heads, _, dh = arrays[0].shape
    monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 4 * length * length * 4)
    g1 = _f32((bsz, length, heads * dh), 56)
    g2 = _f32((bsz, rows.shape[1], heads * dh), 57) * real[:, :, None]
    causal = Tensor(_causal_bias(length))
    padding = Tensor(_padding_bias(lengths, length))

    def run(op):
        q, k, v = (t(a) for a in arrays)
        rng = np.random.default_rng(58)
        first = op(q, k, v, 0.25, causal, 0.1, rng)
        second = op(v, q, k, 0.25, padding, 0.1, rng, rows)
        backward(T.mul(first, Tensor(g1)).sum()
                 + T.mul(second, Tensor(g2)).sum())
        return ([first.data, second.data, q.grad, k.grad, v.grad],
                rng.bit_generator.state)

    (got, got_state), (want, want_state) = run(T.attention), run(
        _attention_chain)
    _assert_same_bytes(got, want)
    assert got_state == want_state


def test_multi_head_attention_records_one_attention_node():
    from slm.config import RunConfig
    from slm.model import init_params, multi_head_attention

    cfg = RunConfig(hidden=16, heads=2, ffn=32, seq_len=12,
                    vocab_size=40).validate()
    params = init_params(cfg, np.random.default_rng(56))
    x = Tensor(_f32((3, 12, 16), 57))
    bias = Tensor(_padding_bias([12, 8, 3], 12))
    out = multi_head_attention(params, "enc.0.attn", x, x, bias, cfg,
                               np.random.default_rng(58))
    ops = [node._backward.__qualname__.split(".")[0]
           for node in topo_nodes(out) if node._backward is not None]
    assert ops.count("attention") == 1
    # q, k and v: one heads-split linear each; then the output
    # projection, one linear
    assert len(ops) == 3 + 1 + 1
    assert all(node.shape[-2:] != (12, 12) for node in topo_nodes(out))


# -- linear layers, the post-norm residual and dropout's byte mask ---------
# ``linear`` and ``residual_norm`` must give the bits of the chains
# model.py ran before them, and dropout those of its float-mask form:
# output, every input gradient and the rng's state, compared by bytes so
# that a zero's sign counts.

def _linear_chain(x, w, b):
    return matmul(x, w) + b


def _residual_norm_chain(residual, out, gamma, beta, p=0.0, rng=None):
    return layer_norm(residual + _float_mask_dropout(out, p, rng), gamma,
                      beta)


def _bytes_run(op, arrays, g, p=None):
    """``op`` on leaves holding ``arrays`` (with ``p`` and a seeded rng
    when ``p`` is given), backward from the upstream gradient ``g``: the
    output and the leaf gradients, and the rng's state."""
    leaves = [t(a, dtype=a.dtype) for a in arrays]
    rng = np.random.default_rng(60)
    out = op(*leaves) if p is None else op(*leaves, p, rng)
    backward(T.mul(out, Tensor(g)).sum())
    return [out.data] + [leaf.grad for leaf in leaves], \
        rng.bit_generator.state


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(24, 32), (4, 12, 32)],
                         ids=["2d", "3d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_is_matmul_plus_bias_bit_for_bit(shape, dtype):
    x = _f32(shape, 61, scale=2.0).astype(dtype)
    w = _f32((32, 48), 62).astype(dtype)
    b = _f32((48,), 63).astype(dtype)
    g = _f32(shape[:-1] + (48,), 64).astype(dtype)
    got, _ = _bytes_run(T.linear, [x, w, b], g)
    want, _ = _bytes_run(_linear_chain, [x, w, b], g)
    _assert_same_bytes(got, want)


def _input_grad(op, x, g):
    leaf = t(x)
    backward(T.mul(op(leaf), Tensor(g)).sum())
    return leaf.grad


@pytest.mark.parametrize("op", ["linear", "feed_forward"])
@pytest.mark.parametrize("hidden", [64, 63])
def test_a_2d_weights_input_gradient_at_selected_rows_is_the_full_ones(
        op, hidden):
    """For 2 <= R < 48 distinct rows of each of two examples, the input
    gradient of the R rows is those rows of the full 48-row input's
    gradient, bit for bit. Against a transposed view of W the few-row
    product rounds differently (at hidden 64 for R up to 18)."""
    length = 48
    x, g = _f32((2, length, hidden), 160), _f32((2, length, hidden), 161)
    ffn = 4 * hidden
    w, b = t(_f32((hidden, hidden), 162)), t(_f32((hidden,), 163))
    w1, b1 = t(_f32((hidden, ffn), 164)), t(_f32((ffn,), 165))
    w2, b2 = t(_f32((ffn, hidden), 166)), t(_f32((hidden,), 167))
    run = {"linear": lambda a: T.linear(a, w, b),
           "feed_forward": lambda a: T.feed_forward(a, w1, b1, w2, b2)}[op]
    full = _input_grad(run, x, g)
    rng = np.random.default_rng(168)
    for r in range(2, length):
        rows = np.sort(np.stack([rng.choice(length, r, replace=False)
                                 for _ in range(2)]), axis=1)[:, :, None]
        got = _input_grad(run, np.take_along_axis(x, rows, 1),
                          np.take_along_axis(g, rows, 1))
        assert got.tobytes() == np.take_along_axis(full, rows, 1).tobytes()


def test_a_fan_out_stacks_input_gradient_multiplies_by_the_view():
    """``_transpose`` copies a 2-D weight but keeps a ``fan_out`` stack's
    transpose a view of its stride-0 data, and a stack's input gradient
    is the product against that view, bit for bit."""
    w, b = t(_f32((64, 64), 170)), t(_f32((64,), 171))
    (wv,), (bv,) = T.fan_out([w, b], [np.arange(2)])
    assert not np.shares_memory(T._transpose(w.data), w.data)
    assert np.shares_memory(T._transpose(wv.data), w.data)
    x, g = _f32((2, 5, 64), 172), _f32((2, 5, 64), 173)
    got = _input_grad(lambda a: T.linear(a, wv, bv), x, g)
    want = np.matmul(g, np.swapaxes(wv.data, -1, -2))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(24, 96), (4, 12, 96)], ids=["2d", "3d"])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
def test_residual_norm_is_the_post_norm_chain_bit_for_bit(shape, p):
    # 96 is no power of two, so layer norm's division is no product
    arrays = [_f32(shape, 65, scale=2.0), _f32(shape, 66, scale=3.0),
              _f32((96,), 67), _f32((96,), 68)]
    g = _f32(shape, 69)
    got, got_state = _bytes_run(T.residual_norm, arrays, g, p)
    want, want_state = _bytes_run(_residual_norm_chain, arrays, g, p)
    _assert_same_bytes(got, want)
    assert got_state == want_state


def test_residual_norm_without_an_rng_drops_nothing():
    arrays = [_f32((4, 12, 32), 70), _f32((4, 12, 32), 71),
              _f32((32,), 72), _f32((32,), 73)]
    g = _f32((4, 12, 32), 74)
    got, _ = _bytes_run(lambda *a: T.residual_norm(*a, 0.1, None), arrays, g)
    want, _ = _bytes_run(_residual_norm_chain, arrays, g)
    _assert_same_bytes(got, want)


@pytest.mark.parametrize("shape", [(24, 32), (4, 12, 32)], ids=["2d", "3d"])
@pytest.mark.parametrize("p", [0.1, 0.5])
def test_dropout_is_the_float_mask_dropout_bit_for_bit(shape, p):
    """Negative inputs that drop give -0.0 in the output and the
    gradient, as the product by a float mask does."""
    x, g = _f32(shape, 75), _f32(shape, 76)
    got, got_state = _bytes_run(dropout, [x], g, p)
    want, want_state = _bytes_run(_float_mask_dropout, [x], g, p)
    _assert_same_bytes(got, want)
    assert got_state == want_state
    y = got[0]
    assert np.signbit(y[y == 0]).any()


def test_linear_grads_match_fd():
    rng = np.random.default_rng(77)
    x = t(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    w = t(rng.normal(size=(4, 5)), dtype=np.float64)
    b = t(rng.normal(size=5), dtype=np.float64)
    m = Tensor(rng.normal(size=(2, 3, 5)))

    def f():
        return T.mul(T.linear(x, w, b), m).sum()

    assert grad_check(f, [x, w, b], eps=1e-5) < 1e-6


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_residual_norm_grads_match_fd(p):
    rng = np.random.default_rng(78)
    residual, out = (t(rng.normal(size=(2, 3, 6)), dtype=np.float64)
                     for _ in range(2))
    gamma = t(rng.normal(size=6), dtype=np.float64)
    beta = t(rng.normal(size=6), dtype=np.float64)
    m = Tensor(rng.normal(size=(2, 3, 6)))

    def f():
        drop = np.random.default_rng(79)     # the same mask on every call
        return T.mul(T.residual_norm(residual, out, gamma, beta, p, drop),
                     m).sum()

    assert grad_check(f, [residual, out, gamma, beta], eps=1e-5) < 1e-6


@pytest.mark.parametrize("bias_shape", [(49,), (1,), (48, 1), (1, 48), ()])
def test_linear_rejects_a_bias_that_is_not_one_per_output(bias_shape):
    x, w = t(np.zeros((2, 3, 32))), t(np.zeros((32, 48)))
    with pytest.raises(ContractError, match="bias"):
        T.linear(x, w, t(np.zeros(bias_shape)))


def test_residual_norm_rejects_operands_of_two_shapes():
    with pytest.raises(ContractError):
        T.residual_norm(t(np.zeros((2, 3, 4))), t(np.zeros((1, 3, 4))),
                        t(np.ones(4)), t(np.zeros(4)))


def test_linear_keeps_no_array_for_its_backward():
    """The chain held the product, one output's worth, until the sweep
    passed it."""
    x = t(_f32((4, 64, 128), 80))
    w, b = t(_f32((128, 256), 81)), t(_f32((256,), 82))
    out_bytes = 4 * 64 * 256 * 4
    assert _held_array_bytes(lambda: T.linear(x, w, b)) <= 64
    assert _held_array_bytes(lambda: _linear_chain(x, w, b)) >= out_bytes


@pytest.mark.parametrize("p", [0.0, 0.1])
def test_residual_norm_keeps_row_statistics_and_a_byte_mask(p):
    """Layer norm's per-row mean and ``inv`` (8 bytes per row) and, with
    dropout, a keep mask (1 byte per element); the chain kept ``xhat``
    and the sum, and with dropout the dropped output and a float32
    mask."""
    rows, hidden = 4 * 64, 128
    arrays = [t(_f32((4, 64, hidden), 83 + i)) for i in range(2)]
    gamma, beta = t(_f32((hidden,), 85)), t(_f32((hidden,), 86))
    n = rows * hidden

    def run(op):
        return op(*arrays, gamma, beta, p, np.random.default_rng(87))

    held = _held_array_bytes(lambda: run(T.residual_norm))
    assert held <= (1 if p else 0) * n + 8 * rows + 64
    if p:
        assert _held_array_bytes(lambda: run(_residual_norm_chain)) >= 16 * n


def test_dropout_keeps_a_byte_mask():
    x = t(_f32((4, 64, 128), 88))
    n = x.data.size
    drop = np.random.default_rng(89)
    assert _held_array_bytes(lambda: dropout(x, 0.1, drop)) <= n + 64
    assert _held_array_bytes(
        lambda: _float_mask_dropout(x, 0.1, drop)) >= 4 * n


def test_one_encoder_layer_records_eight_nodes():
    """A post-norm is one node and so is the FFN; the attention block is
    the five of the test above."""
    from slm.config import RunConfig
    from slm.encoder import encode
    from slm.model import init_params

    cfg = RunConfig(hidden=16, heads=2, ffn=32, seq_len=12, vocab_size=40,
                    encoder_layers=1).validate()
    params = init_params(cfg, np.random.default_rng(90))
    h0 = t(_f32((3, 12, 16), 91))
    bias = Tensor(_padding_bias([12, 8, 3], 12))
    out = encode(params, cfg, h0, bias, np.random.default_rng(92))
    ops, _ = census(out)
    assert ops == {"linear": 4, "attention": 1, "feed_forward": 1,
                   "residual_norm": 2}


def test_graph_census_counts_a_linear_node_and_its_output_alone():
    """``tests/graph_census.py`` reads the graph's internals; a linear
    keeps nothing for its backward but its inputs, which are leaves."""
    x, w, b = t(_f32((3, 4), 93)), t(_f32((4, 5), 94)), t(_f32((5,), 95))
    out = T.linear(x, w, b)
    assert census(out) == ({"linear": 1}, {"linear": out.data.nbytes})


def _doubled_by_a_helper(x):
    """A test-local op whose backward reads its one array through a
    nested helper, which calls itself."""
    saved = np.full(x.shape, 2.0, x.data.dtype)

    def factor(depth):
        return saved if depth == 0 else factor(depth - 1)

    def bw(out):
        x._accumulate(out.grad * factor(2), owned=True)

    return T._make(x.data * 2.0, (x,), bw)


def test_graph_census_follows_the_helpers_a_backward_calls():
    """An array a closure holds through a nested helper counts for the
    op, once, though the helper's closure also holds the helper."""
    x = t(_f32((3, 4), 96))
    out = _doubled_by_a_helper(x)
    assert census(out) == ({"_doubled_by_a_helper": 1},
                           {"_doubled_by_a_helper": 2 * out.data.nbytes})


def _spends_in_backward(x, nbytes):
    """A test-local op whose backward allocates ``nbytes`` for a moment."""
    def bw(out):
        scratch = np.ones(nbytes // 8)
        x._accumulate(out.grad * scratch[0], owned=True)

    return T._make(x.data.copy(), (x,), bw)


def test_graph_census_names_the_closure_that_sets_the_peak():
    """Of two linears around an op whose backward spends 4 MiB, that op
    sets the sweep's traced peak, with its transient above what was
    traced at its start."""
    x = t(_f32((8, 16), 155))
    w, b = t(_f32((16, 16), 156)), t(_f32((16,), 157))
    spend = 4 << 20
    gc.collect()
    tracemalloc.start()
    try:
        loss = T.linear(_spends_in_backward(T.linear(x, w, b), spend), w,
                        b).sum()
        start = tracemalloc.get_traced_memory()[0]
        peak, closure = traced_backward(loss)
    finally:
        tracemalloc.stop()
    assert closure.op == "_spends_in_backward"
    assert spend <= closure.transient < spend + (64 << 10)
    assert start - (64 << 10) < closure.start <= start + (64 << 10)
    assert peak == closure.start + closure.transient


# -- the FFN, the heads-split projections and the embedding as one op each --
# ``feed_forward``, ``linear(..., heads=)`` and ``embedding`` must give the
# bits of the chains model.py and encoder.py ran before them: output, every
# input gradient and the rng's state, compared by bytes.

def _feed_forward_chain(x, w1, b1, w2, b2):
    return T.linear(gelu(T.linear(x, w1, b1)), w2, b2)


def _heads_linear_chain(x, w, b, heads):
    bsz, length, _ = x.shape
    return T.linear(x, w, b).reshape(bsz, length, heads, -1).swapaxes(1, 2)


def _embedding_chain(tables, ids, gamma, beta, p=0.0, rng=None):
    """The embedding as ``encoder.embed`` ran it: one ``take`` and
    ``reshape`` per table, the rows added in order, then layer norm and
    dropout."""
    h = None
    for table, idx in zip(tables, ids):
        row = take(table, idx.reshape(-1)).reshape(*idx.shape, table.shape[1])
        h = row if h is None else h + row
    return dropout(layer_norm(h, gamma, beta), p, rng)


def _mha_chain(params, prefix, x_q, x_kv, bias, cfg, rng, cache=None,
               rows=None):
    """``model.multi_head_attention`` with q, k and v each split into
    heads by a ``reshape`` and a ``swapaxes`` copy of its linear."""
    nh = cfg.heads

    def proj(x, name):
        return T.linear(x, params[f"{prefix}.w{name}"],
                        params[f"{prefix}.b{name}"])

    def split(x):
        return x.reshape(x.shape[0], x.shape[1], nh, -1).swapaxes(1, 2)

    q = split(proj(x_q, "q"))
    if x_kv is None:
        k, v = cache[prefix]
    else:
        k, v = split(proj(x_kv, "k")), split(proj(x_kv, "v"))
        if cache is not None:
            if prefix in cache:
                old_k, old_v = cache[prefix]
                k = Tensor(np.concatenate([old_k.data, k.data], axis=2))
                v = Tensor(np.concatenate([old_v.data, v.data], axis=2))
            cache[prefix] = (k, v)
    ctx = T.attention(q, k, v, 1.0 / np.sqrt(cfg.hidden // nh), bias,
                      cfg.dropout, rng, rows)
    return proj(ctx, "o")


def _ffn_chain(params, prefix, x):
    return _feed_forward_chain(x, *(params[f"{prefix}.{n}"]
                                    for n in ("w1", "b1", "w2", "b2")))


def _tiny_model(dtype=np.float32, **kw):
    from slm.config import RunConfig
    from slm.model import init_params

    cfg = RunConfig(**{"hidden": 16, "heads": 2, "ffn": 32, "seq_len": 12,
                       "vocab_size": 40, **kw}).validate()
    return cfg, init_params(cfg, np.random.default_rng(100), dtype)


@pytest.mark.parametrize("shape", [(24, 32), (4, 12, 32)], ids=["2d", "3d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shared", [False, True],
                         ids=["own-weights", "one-weight-twice"])
@pytest.mark.parametrize("blocks", ["one", "several"])
def test_feed_forward_is_linear_gelu_linear_bit_for_bit(shape, dtype, shared,
                                                        blocks, monkeypatch):
    """With one [32, 32] weight as both ``w1`` and ``w2`` its gradient
    sums the two products in the chain's order. Several blocks: five
    float32 rows of 80 each, the last block short."""
    if blocks == "several":
        monkeypatch.setattr(T, "FFN_BLOCK_BYTES", 5 * 80 * 4)
    ffn = 32 if shared else 80
    x = _f32(shape, 101, scale=2.0).astype(dtype)
    w1, w2 = _f32((32, ffn), 102).astype(dtype), _f32((ffn, 32), 103)
    b1, b2 = _f32((ffn,), 104).astype(dtype), _f32((32,), 105).astype(dtype)
    g = _f32(shape, 106).astype(dtype)
    if shared:
        def run(op):
            return _bytes_run(lambda a, w, c, d: op(a, w, c, w, d),
                              [x, w1, b1, b2], g)
    else:
        def run(op):
            return _bytes_run(op, [x, w1, b1, w2.astype(dtype), b2], g)
    _assert_same_bytes(run(T.feed_forward)[0], run(_feed_forward_chain)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_heads_split_linear_is_the_reshape_swapaxes_chain_bit_for_bit(dtype):
    x = _f32((3, 12, 32), 107, scale=2.0).astype(dtype)
    w, b = _f32((32, 48), 108).astype(dtype), _f32((48,), 109).astype(dtype)
    g = _f32((3, 4, 12, 12), 110).astype(dtype)
    got, _ = _bytes_run(lambda *a: T.linear(*a, heads=4), [x, w, b], g)
    want, _ = _bytes_run(lambda *a: _heads_linear_chain(*a, 4), [x, w, b], g)
    _assert_same_bytes(got, want)


_EMBED_ROWS = {"token": 11, "position": 12, "sentence": 5, "segment": 2}


def _embedding_inputs(names, dtype):
    """Tables of width 96 and [4, 12] ids full of repeats: every
    position, token ids from 11 rows, sentence and segment runs."""
    tables = [_f32((_EMBED_ROWS[n], 96), 111 + k).astype(dtype)
              for k, n in enumerate(names)]
    rng = np.random.default_rng(115)
    ids = {"token": rng.integers(11, size=(4, 12)),
           "position": np.broadcast_to(np.arange(12), (4, 12)).copy(),
           "sentence": np.sort(rng.integers(5, size=(4, 12)), axis=1),
           "segment": (np.arange(12) >= 5).astype(np.int64)[None].repeat(
               4, axis=0)}
    gamma = _f32((96,), 116).astype(dtype)
    beta = _f32((96,), 117).astype(dtype)
    return tables + [gamma, beta], [ids[n] for n in names]


@pytest.mark.parametrize("names", [("token", "position", "segment"),
                                   ("token", "position", "sentence",
                                    "segment")], ids=["3-tables", "4-tables"])
@pytest.mark.parametrize("p", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_is_the_take_add_norm_dropout_chain_bit_for_bit(names, p,
                                                                  dtype):
    arrays, ids = _embedding_inputs(names, dtype)
    g = _f32((4, 12, 96), 118).astype(dtype)

    def run(op):
        def call(*args):
            *leaves, gamma, beta, p, rng = args
            return op(leaves, ids, gamma, beta, p, rng)
        return _bytes_run(call, arrays, g, p)

    (got, got_state), (want, want_state) = run(T.embedding), run(
        _embedding_chain)
    _assert_same_bytes(got, want)
    assert got_state == want_state


def test_embedding_sums_a_table_used_thrice_in_the_chains_order():
    """A row that three of the table's uses gather takes their gradients
    in the tables' order, which the sum's rounding shows."""
    arrays, ids = _embedding_inputs(("token", "position", "sentence",
                                     "segment"), np.float32)
    token, position, gamma, beta = arrays[0], arrays[1], arrays[-2], \
        arrays[-1]
    ids = [ids[0], ids[1], ids[0][::-1].copy(), np.roll(ids[0], 1, axis=1)]
    g = _f32((4, 12, 96), 118)

    def run(op):
        def call(tok, pos, gamma, beta, p, rng):
            return op([tok, pos, tok, tok], ids, gamma, beta, p, rng)
        return _bytes_run(call, [token, position, gamma, beta], g, 0.1)

    (got, got_state), (want, want_state) = run(T.embedding), run(
        _embedding_chain)
    _assert_same_bytes(got, want)
    assert got_state == want_state


@pytest.mark.parametrize("sentence_reps", [False, True])
def test_embed_is_the_chain_over_the_configured_tables(sentence_reps):
    """``encoder.embed`` sums the sentence table only with sentence reps
    on; the dropout draw leaves the rng where the chain's left it."""
    from slm.encoder import embed

    names = ["token", "position"] + ["sentence"] * sentence_reps + [
        "segment"]
    _, ids = _embedding_inputs(names, np.float32)
    ids = dict(zip(names, ids))
    ids.setdefault("sentence", np.zeros((4, 12), dtype=np.int64))
    cfg, params = _tiny_model(sentence_reps_enabled=sentence_reps,
                              sr_enabled=sentence_reps)
    g = Tensor(_f32((4, 12, 16), 119))

    def run(op):
        for param in params.values():
            param.grad = None
        rng = np.random.default_rng(120)
        out = op(rng)
        backward(T.mul(out, g).sum())
        return [out.data] + [params[f"emb.{n}"].grad
                             for n in _EMBED_ROWS] + [
            params["emb.ln.g"].grad, params["emb.ln.b"].grad], \
            rng.bit_generator.state

    got, got_state = run(lambda rng: embed(
        params, cfg, ids["token"], ids["position"], ids["sentence"],
        ids["segment"], rng))
    want, want_state = run(lambda rng: _embedding_chain(
        [params[f"emb.{n}"] for n in names], [ids[n] for n in names],
        params["emb.ln.g"], params["emb.ln.b"], cfg.dropout, rng))
    assert (got[3] is None) == (not sentence_reps) == (want[3] is None)
    _assert_same_bytes([a for a in got if a is not None],
                       [a for a in want if a is not None])
    assert got_state == want_state


@pytest.mark.parametrize("kind", ["self", "cross"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_multi_head_attention_is_the_heads_split_chain_bit_for_bit(kind,
                                                                   dtype):
    """Self-attention sums x's gradient over q, k and v in the chain's
    order; cross-attention sends k's and v's to the memory."""
    from slm.model import multi_head_attention

    cfg, params = _tiny_model(dtype)
    prefix = "enc.0.attn" if kind == "self" else "dec.0.cross"
    names = [f"{prefix}.{n}{p}" for n in "wb" for p in "qkvo"]
    bias = Tensor(_padding_bias([12, 8, 3], 12 if kind == "self" else 7)
                  .astype(dtype))
    g = Tensor(_f32((3, 12, 16), 121).astype(dtype))

    def run(op):
        for name in names:
            params[name].grad = None
        x = t(_f32((3, 12, 16), 122).astype(dtype), dtype=dtype)
        kv = x if kind == "self" else t(_f32((3, 7, 16), 123).astype(dtype),
                                        dtype=dtype)
        rng = np.random.default_rng(124)
        out = op(params, prefix, x, kv, bias, cfg, rng)
        backward(T.mul(out, g).sum())
        grads = [out.data, x.grad] + [params[n].grad for n in names]
        if kind == "cross":
            grads.append(kv.grad)
        return grads, rng.bit_generator.state

    (got, got_state), (want, want_state) = run(multi_head_attention), run(
        _mha_chain)
    _assert_same_bytes(got, want)
    assert got_state == want_state


def test_cached_greedy_decode_is_the_chain_bit_for_bit(monkeypatch):
    """Four one-row decoder steps under ``no_grad``, the keys and values
    cached between them, as ``greedy_unshuffle`` runs them."""
    from slm import reconstructor

    cfg, params = _tiny_model()
    c = Tensor(_f32((3, 6, 16), 125))
    c_bias = Tensor(_padding_bias([6, 4, 5], 6))

    def steps():
        cache, outs = {}, []
        with T.no_grad():
            for step in range(4):
                x = Tensor(np.ascontiguousarray(c.data[:, step:step + 1]))
                out = reconstructor.decoder_stack(
                    params, cfg, x, c, None, c_bias=c_bias, cache=cache)
                assert out._backward is None
                outs.append(out.data)
        return outs

    got = steps()
    monkeypatch.setattr(reconstructor, "multi_head_attention", _mha_chain)
    monkeypatch.setattr(reconstructor, "feed_forward", _ffn_chain)
    _assert_same_bytes(got, steps())


def test_pretraining_batch_is_the_chain_bit_for_bit(monkeypatch):
    """One pretraining batch with dropout on: the loss, every parameter's
    gradient and the dropout rng's state, against the encoder and the
    decoder built from the chains, the encoder's last layer running at
    the rows the losses read as the bundle runs it."""
    from slm import encoder, reconstructor
    from slm.objectives import pretrain_bundle
    from slm.trainer import pack_corpus, prepare_batch

    from util import random_document

    cfg, params = _tiny_model(hidden=64, ffn=256, seq_len=32,
                              max_sentences=6, batch_size=4)
    rng = np.random.default_rng(126)
    docs = [random_document(rng, n_sents=4) for _ in range(8)]
    batch, _ = prepare_batch(pack_corpus(docs, cfg), 0, cfg)

    def run():
        for param in params.values():
            param.grad = None
        drop = np.random.default_rng(127)
        loss = pretrain_bundle(params, cfg, batch, drop).loss
        backward(loss)
        return [loss.data] + [params[n].grad for n in sorted(params)], \
            drop.bit_generator.state

    got, got_state = run()

    def embed_chain(params, cfg, tok, pos, sent, seg, rng=None):
        tables = ["token", "position", "sentence", "segment"]
        return _embedding_chain(
            [params[f"emb.{n}"] for n in tables], [tok, pos, sent, seg],
            params["emb.ln.g"], params["emb.ln.b"], cfg.dropout, rng)

    for module in (encoder, reconstructor):
        monkeypatch.setattr(module, "multi_head_attention", _mha_chain)
        monkeypatch.setattr(module, "feed_forward", _ffn_chain)
    monkeypatch.setattr(encoder, "embed", embed_chain)
    want, want_state = run()
    _assert_same_bytes(got, want)
    assert got_state == want_state


def test_feed_forward_grads_match_fd(monkeypatch):
    monkeypatch.setattr(T, "FFN_BLOCK_BYTES", 4 * 6 * 8)
    rng = np.random.default_rng(128)
    x = t(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    w1, w2 = (t(rng.normal(size=s), dtype=np.float64)
              for s in ((4, 6), (6, 4)))
    b1, b2 = (t(rng.normal(size=n), dtype=np.float64) for n in (6, 4))
    m = Tensor(rng.normal(size=(2, 3, 4)))

    def f():
        return T.mul(T.feed_forward(x, w1, b1, w2, b2), m).sum()

    assert grad_check(f, [x, w1, b1, w2, b2], eps=1e-5) < 1e-6


def test_rebuilding_backwards_read_only_unchanged_inputs(monkeypatch):
    """The FFN's and the post-norm's backwards rebuild their
    intermediates from their inputs, so one graph where those inputs are
    shared must still be the chains' bits: one ``x`` feeds two FFNs, one
    with ``w1 is w2``, and a post-norm adds the first FFN's output to
    ``x``. Several FFN blocks, dropout on. Every input of every node
    holds its bytes from before the sweep after it."""
    monkeypatch.setattr(T, "FFN_BLOCK_BYTES", 5 * 80 * 4)
    arrays = [_f32((4, 12, 32), 142, scale=2.0), _f32((32, 80), 143),
              _f32((80,), 144), _f32((80, 32), 145), _f32((32,), 146),
              _f32((32, 32), 147), _f32((32,), 148), _f32((32,), 149),
              _f32((32,), 150), _f32((32,), 151)]
    g1, g2 = _f32((4, 12, 32), 152), _f32((4, 12, 32), 153)

    def run(ffn, norm):
        x, w1, b1, w2, b2, w, b, c, gamma, beta = leaves = [
            t(a) for a in arrays]
        rng = np.random.default_rng(154)
        first = ffn(x, w1, b1, w2, b2)
        second = ffn(x, w, b, w, c)
        out = norm(x, first, gamma, beta, 0.1, rng)
        loss = T.mul(out, Tensor(g1)).sum() + T.mul(second,
                                                    Tensor(g2)).sum()
        nodes = topo_nodes(loss)
        before = [_digest(n.data) for n in nodes]
        backward(loss)
        assert [_digest(n.data) for n in nodes] == before
        return [first.data, second.data, out.data] + [
            leaf.grad for leaf in leaves], rng.bit_generator.state

    (got, got_state), (want, want_state) = run(
        T.feed_forward, T.residual_norm), run(_feed_forward_chain,
                                              _residual_norm_chain)
    _assert_same_bytes(got, want)
    assert got_state == want_state


def test_heads_split_linear_grads_match_fd():
    rng = np.random.default_rng(129)
    x = t(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    w = t(rng.normal(size=(4, 6)), dtype=np.float64)
    b = t(rng.normal(size=6), dtype=np.float64)
    m = Tensor(rng.normal(size=(2, 3, 3, 2)))

    def f():
        return T.mul(T.linear(x, w, b, heads=3), m).sum()

    assert grad_check(f, [x, w, b], eps=1e-5) < 1e-6


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_embedding_grads_match_fd(p):
    rng = np.random.default_rng(130)
    tables = [t(rng.normal(size=(n, 6)), dtype=np.float64) for n in (5, 4, 2)]
    gamma = t(rng.normal(size=6), dtype=np.float64)
    beta = t(rng.normal(size=6), dtype=np.float64)
    ids = [rng.integers(n, size=(2, 4)) for n in (5, 4, 2)]
    ids[0][0, :2] = 3                     # a repeated id
    m = Tensor(rng.normal(size=(2, 4, 6)))

    def f():
        drop = np.random.default_rng(131)     # the same mask on every call
        return T.mul(T.embedding(tables, ids, gamma, beta, p, drop), m).sum()

    assert grad_check(f, tables + [gamma, beta], eps=1e-5) < 1e-6


@pytest.mark.parametrize("case", ["2d-input", "heads-do-not-divide"])
def test_heads_split_linear_rejects_what_it_cannot_split(case):
    x = t(np.zeros((4, 32) if case == "2d-input" else (2, 4, 32)))
    w, b = t(np.zeros((32, 48))), t(np.zeros(48))
    with pytest.raises(ContractError, match="heads"):
        T.linear(x, w, b, heads=4 if case == "2d-input" else 5)


@pytest.mark.parametrize("case", ["no-tables", "ids-per-table",
                                  "widths", "id-shapes"])
def test_embedding_rejects_mismatched_tables_and_ids(case):
    tables = [t(np.zeros((5, 4))), t(np.zeros((3, 4)))]
    ids = [np.zeros((2, 3), dtype=np.int64)] * 2
    if case == "no-tables":
        tables, ids = [], []
    elif case == "ids-per-table":
        ids = ids[:1]
    elif case == "widths":
        tables[1] = t(np.zeros((3, 5)))
    else:
        ids = [ids[0], np.zeros((2, 4), dtype=np.int64)]
    with pytest.raises(ContractError, match="embedding"):
        T.embedding(tables, ids, t(np.ones(4)), t(np.zeros(4)))


def test_feed_forward_keeps_no_array_for_its_backward():
    """The chain keeps the pre-activation and gelu's output, each
    [.., ffn]; gelu rebuilds its tanh in its backward."""
    x = t(_f32((4, 64, 64), 132))
    w1, b1 = t(_f32((64, 256), 133)), t(_f32((256,), 134))
    w2, b2 = t(_f32((256, 64), 135)), t(_f32((64,), 136))
    n_ffn = 4 * 64 * 256 * 4
    assert _held_array_bytes(
        lambda: T.feed_forward(x, w1, b1, w2, b2)) <= 64
    assert _held_array_bytes(
        lambda: _feed_forward_chain(x, w1, b1, w2, b2)) >= 2 * n_ffn


def test_heads_split_linear_keeps_no_array_for_its_backward():
    """The chain held the [B, L, h] product until the sweep passed it."""
    x = t(_f32((4, 64, 64), 137))
    w, b = t(_f32((64, 64), 138)), t(_f32((64,), 139))
    assert _held_array_bytes(lambda: T.linear(x, w, b, heads=2)) <= 64
    assert _held_array_bytes(
        lambda: _heads_linear_chain(x, w, b, 2)) >= 4 * 64 * 64 * 4


@pytest.mark.parametrize("p", [0.0, 0.1])
def test_embedding_keeps_row_statistics_and_a_byte_mask(p):
    """Layer norm's per-row mean and ``inv`` (8 bytes per row) and, with
    dropout, a keep mask (1 byte per element); the chain kept each
    table's rows, each partial sum, the normalized sum and ``xhat``."""
    arrays, ids = _embedding_inputs(("token", "position", "sentence",
                                     "segment"), np.float32)
    *tables, gamma, beta = [t(a) for a in arrays]
    rows, n = 4 * 12, 4 * 12 * 96

    def run(op):
        return op(tables, ids, gamma, beta, p, np.random.default_rng(140))

    held = _held_array_bytes(lambda: run(T.embedding))
    assert held <= (1 if p else 0) * n + 8 * rows + 64
    assert _held_array_bytes(lambda: run(_embedding_chain)) >= 8 * 4 * n


def test_a_training_encode_records_one_node_per_embedding_ffn_and_projection():
    """The graph QA fine-tuning builds under its head: one embedding,
    and per encoder layer four linears, one attention, one FFN and two
    post-norms."""
    from slm.encoder import encode_batch

    from util import masked_example

    cfg, params = _tiny_model(seq_len=32, max_sentences=6, dropout=0.1)
    rng = np.random.default_rng(141)
    h = encode_batch(params, cfg, [masked_example(cfg, rng)
                                   for _ in range(3)], rng, training=True)
    ops, _ = census(h)
    layers = cfg.encoder_layers
    assert ops == {"embedding": 1, "linear": 4 * layers,
                   "attention": layers, "feed_forward": layers,
                   "residual_norm": 2 * layers}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("kernel", ["softmax_rows", "gelu", "layer_norm", "dropout",
                                    "linear", "residual_norm", "feed_forward",
                                    "heads_split_linear", "embedding"])
def test_kernels_leave_their_inputs_and_upstream_gradient_alone(kernel):
    x = _f32((2, 4, 16, 16), 34, scale=3.0)
    ids = [np.random.default_rng(40).integers(n, size=(2, 4, 16))
           for n in (20, 16)]
    ops = {
        "softmax_rows": (softmax_rows, [x]),
        "gelu": (gelu, [x]),
        "layer_norm": (layer_norm, [x, _f32((16,), 35), _f32((16,), 36)]),
        "dropout": (lambda a: dropout(a, 0.3, np.random.default_rng(37)),
                    [x]),
        "linear": (T.linear, [x, _f32((16, 16), 39), _f32((16,), 35)]),
        "residual_norm": (
            lambda r, a, g, b: T.residual_norm(
                r, a, g, b, 0.3, np.random.default_rng(37)),
            [x, _f32(x.shape, 39), _f32((16,), 35), _f32((16,), 36)]),
        "feed_forward": (T.feed_forward, [x, _f32((16, 24), 39),
                                          _f32((24,), 35),
                                          _f32((24, 16), 36),
                                          _f32((16,), 41)]),
        # [8, 16, 16] split into 4 heads is [8, 4, 16, 4]
        "heads_split_linear": (
            lambda a, w, b: T.linear(a.reshape(8, 16, 16), w, b, heads=4),
            [x, _f32((16, 16), 39), _f32((16,), 35)]),
        "embedding": (
            lambda t1, t2, g, b: T.embedding(
                [t1, t2], ids, g, b, 0.3, np.random.default_rng(37)),
            [_f32((20, 16), 39), _f32((16, 16), 42), _f32((16,), 35),
             _f32((16,), 36)]),
    }
    op, arrays = ops[kernel]
    shape = (8, 4, 16, 4) if kernel == "heads_split_linear" else x.shape
    g = _f32(shape, 38)
    before = [_digest(a) for a in arrays + [g]]
    _run(op, arrays, g)
    assert [_digest(a) for a in arrays + [g]] == before


def test_backward_names_the_op_whose_output_got_no_gradient():
    """A node that the sweep reaches with a closure but no gradient ends
    the sweep in a ContractError naming its op, before its closure runs
    and before any leaf below it gets a gradient."""
    from util import add_skipping_right_operand

    add = add_skipping_right_operand()
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    loss = add(T.tsum(x), T.tsum(T.mul(y, 2.0)))
    with pytest.raises(ContractError, match=r"tsum\.<locals>\.bw with no "
                                            r"gradient"):
        backward(loss)
    assert y.grad is None
