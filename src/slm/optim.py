"""Adam with linear warmup/decay, decoupled weight decay, and global
gradient clipping.

The schedule climbs linearly from zero to the peak rate over the warmup
steps and then decays linearly back to zero at the final step. Weight
decay is decoupled from the moment estimates and skipped for biases and
layer-norm parameters (every 1-D tensor in this model). Parameters that
received no gradient in a step are left untouched.
"""
from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import TrainingAbort
from .tensor import Tensor


def lr_schedule(step: int, cfg: RunConfig) -> float:
    if step < 0:
        raise ValueError("negative step")
    if cfg.warmup > 0 and step < cfg.warmup:
        return cfg.peak_lr * step / cfg.warmup
    tail = max(cfg.steps - cfg.warmup, 1)
    return cfg.peak_lr * max(cfg.steps - step, 0) / tail


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def slot(self, name: str, like: np.ndarray):
        if name not in self.m:
            self.m[name] = np.zeros_like(like)
            self.v[name] = np.zeros_like(like)
        return self.m[name], self.v[name]


def decays(name: str, param: Tensor) -> bool:
    # biases and norm gains/shifts are all the 1-D tensors here
    return param.data.ndim > 1


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm. The accumulation runs in 64-bit so the
    reported norm does not depend on parameter ordering at 32-bit.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(np.square(p.grad, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def adam_update(params: dict[str, Tensor], state: AdamState, lr: float,
                cfg: RunConfig) -> None:
    """One bias-corrected Adam step over every parameter with a gradient."""
    bad = [n for n, p in params.items()
           if p.grad is not None and not np.all(np.isfinite(p.grad))]
    if bad:
        raise TrainingAbort(f"non-finite gradient for: {', '.join(sorted(bad))}")

    state.t += 1
    t = state.t
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = state.slot(name, p.data)
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        if cfg.weight_decay > 0 and decays(name, p):
            update = update + cfg.weight_decay * p.data
        p.data -= (lr * update).astype(p.data.dtype, copy=False)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
