import numpy as np
import pytest

import slm.tensor as T
from slm.errors import ContractError
from slm.tensor import (Tensor, backward, cross_entropy, dropout, gather_elements,
                        gelu, grad_check, layer_norm, log, matmul, softmax_rows,
                        take)


def t(data, grad=True, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


# -- forward oracles ------------------------------------------------------

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
    """Without a graph gelu cubes by multiplying, with one by power;
    the two agree to rounding over the whole useful input range."""
    x = np.random.default_rng(5).uniform(-12, 12, 100_000).astype(dtype)
    recorded = gelu(t(x, dtype=dtype)).data
    with T.no_grad():
        plain = gelu(t(x, dtype=dtype)).data
    assert plain.dtype == recorded.dtype == dtype
    assert np.max(np.abs(plain - recorded)) <= tol


def test_graph_gelu_float32_bits():
    """Pins the float32 arithmetic of gelu while a graph is recorded:
    the seeded learning check (acceptance criterion 5) depends on
    pretraining's exact bits. Delete this test together with gelu's
    no-graph branch."""
    x = np.random.default_rng(6).uniform(-12, 12, 100_000).astype(np.float32)
    c = float(np.sqrt(2.0 / np.pi))
    expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
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
    x = t(np.ones((4, 4)))
    y = dropout(x, 0.5, np.random.default_rng(0), training=False)
    assert y is x


def test_dropout_scales_kept_units():
    rng = np.random.default_rng(1)
    x = t(np.ones((2000,)))
    y = dropout(x, 0.25, rng, training=True)
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


@pytest.mark.parametrize("cols", [[0, 3], [-1, 0]])
def test_gather_elements_rejects_columns_outside_the_row(cols):
    with pytest.raises(IndexError):
        gather_elements(t(np.zeros((2, 3))), np.array(cols))
