import numpy as np
import pytest

from slm.config import RunConfig
from slm.errors import TrainingAbort
from slm.optim import (BETA1, BETA2, AdamState, adam_update,
                       clip_global_norm, decays, lr_schedule, zero_grads)
from slm.tensor import Tensor

from util import small_config


def test_schedule_is_zero_at_step_zero():
    cfg = small_config(steps=1000, warmup=100)
    assert lr_schedule(0, cfg) == 0.0


def test_schedule_hits_peak_at_warmup_end():
    cfg = small_config(steps=1000, warmup=100, peak_lr=1.5e-4)
    assert lr_schedule(100, cfg) == pytest.approx(1.5e-4)


def test_schedule_is_zero_at_final_step():
    cfg = small_config(steps=1000, warmup=100)
    assert lr_schedule(1000, cfg) == 0.0
    assert lr_schedule(5000, cfg) == 0.0


def test_schedule_is_piecewise_linear():
    cfg = small_config(steps=1000, warmup=100, peak_lr=2e-4)
    assert lr_schedule(50, cfg) == pytest.approx(1e-4)
    assert lr_schedule(550, cfg) == pytest.approx(1e-4)
    ups = [lr_schedule(s, cfg) for s in range(101)]
    downs = [lr_schedule(s, cfg) for s in range(100, 1001)]
    assert all(b > a for a, b in zip(ups, ups[1:]))
    assert all(b < a for a, b in zip(downs, downs[1:]))


def test_schedule_without_warmup_starts_at_peak():
    cfg = small_config(steps=100, warmup=0, peak_lr=1e-3)
    assert lr_schedule(0, cfg) == pytest.approx(1e-3)


def test_adam_no_gradient_leaves_params_unchanged():
    cfg = small_config()
    p = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    state = AdamState()
    adam_update({"w": p}, state, 1e-3, cfg)
    np.testing.assert_array_equal(p.data, np.ones((3, 3)))


def test_adam_zero_gradient_without_decay_is_noop():
    cfg = small_config(weight_decay=0.0)
    p = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    p.grad = np.zeros((3, 3), dtype=np.float32)
    adam_update({"w": p}, AdamState(), 1e-3, cfg)
    np.testing.assert_array_equal(p.data, np.ones((3, 3)))


def test_adam_matches_reference_formula_one_step():
    cfg = small_config(weight_decay=0.0)
    w0 = np.array([[1.0, -2.0]], dtype=np.float32)
    g = np.array([[0.5, 0.25]], dtype=np.float32)
    p = Tensor(w0.copy(), requires_grad=True)
    p.grad = g.copy()
    adam_update({"w": p}, AdamState(), 1e-2, cfg)
    m = (1 - BETA1) * g / (1 - BETA1)
    v = (1 - BETA2) * g * g / (1 - BETA2)
    expect = w0 - 1e-2 * m / (np.sqrt(v) + cfg.adam_eps)
    np.testing.assert_allclose(p.data, expect, rtol=1e-6)


def test_quadratic_converges_within_200_steps():
    cfg = small_config(weight_decay=0.0)
    p = Tensor(np.asarray([5.0], dtype=np.float32), requires_grad=True)
    state = AdamState()
    for _ in range(200):
        p.grad = 2.0 * (p.data - 3.0)  # d/dx (x-3)^2
        adam_update({"x": p}, state, 5e-2, cfg)
    np.testing.assert_allclose(p.data, [3.0], atol=1e-2)


def test_weight_decay_shrinks_matrices_but_not_vectors():
    cfg = small_config(weight_decay=0.1)
    w = Tensor(np.full((2, 2), 2.0, dtype=np.float32), requires_grad=True)
    b = Tensor(np.full(2, 2.0, dtype=np.float32), requires_grad=True)
    w.grad = np.zeros_like(w.data)
    b.grad = np.zeros_like(b.data)
    assert decays("w", w) and not decays("b", b)
    adam_update({"w": w, "b": b}, AdamState(), 1e-1, cfg)
    np.testing.assert_allclose(w.data, 2.0 - 1e-1 * 0.1 * 2.0, rtol=1e-6)
    np.testing.assert_array_equal(b.data, np.full(2, 2.0))


def test_non_finite_gradient_aborts_with_names():
    cfg = small_config()
    p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    p.grad = np.array([np.nan, 1.0], dtype=np.float32)
    with pytest.raises(TrainingAbort, match="bad_param"):
        adam_update({"bad_param": p}, AdamState(), 1e-3, cfg)


def test_clip_rescales_to_unit_norm():
    a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    a.grad = np.full(3, 2.0, dtype=np.float32)
    b.grad = np.full(4, 2.0, dtype=np.float32)
    before = float(np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2)))
    norm = clip_global_norm({"a": a, "b": b}, 1.0)
    assert norm == pytest.approx(before)
    after = float(np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2)))
    assert after == pytest.approx(1.0, rel=1e-5)


def test_clip_leaves_small_gradients_alone():
    a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    a.grad = np.array([0.3, 0.4], dtype=np.float32)
    norm = clip_global_norm({"a": a}, 1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_allclose(a.grad, [0.3, 0.4])


def test_same_seed_runs_reach_identical_params():
    # a deterministic optimization trace: same start, same grads
    cfg = small_config(weight_decay=0.01)

    def run():
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(4, 4)).astype(np.float32),
                   requires_grad=True)
        state = AdamState()
        for step in range(100):
            g_rng = np.random.default_rng(step)
            p.grad = g_rng.normal(size=(4, 4)).astype(np.float32)
            clip_global_norm({"w": p}, 1.0)
            adam_update({"w": p}, state, lr_schedule(step, cfg), cfg)
        return p.data

    first, second = run(), run()
    assert first.tobytes() == second.tobytes()


def test_zero_grads_clears_buffers():
    p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    p.grad = np.ones(2, dtype=np.float32)
    zero_grads({"p": p})
    assert p.grad is None
