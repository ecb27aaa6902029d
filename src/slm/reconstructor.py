"""Sequence reconstructor: shallow decoder plus pointer network.

The decoder consumes only the sentence summary C. Teacher forcing feeds
(h_cls, then the gold-ordered sentence rows); causal self-attention
keeps step i blind to later steps while cross-attention sees all of C.
Each output row is dotted against every row of C and softmaxed, giving
one pointer distribution per reconstruction step; step i should select
the sentence originally at position i and the final step selects [SEP].
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ContractError
from .model import NEG_INF, feed_forward, multi_head_attention, post_norm
from .tensor import Tensor


def causal_bias(steps: int, dtype=np.float32) -> Tensor:
    bias = np.triu(np.full((steps, steps), NEG_INF, dtype=dtype), k=1)
    return Tensor(bias.reshape(1, 1, steps, steps))


def decoder_stack(params: dict, cfg: RunConfig, x: Tensor, c: Tensor,
                  bias: Tensor, rng=None, training: bool = False) -> Tensor:
    """The decoder layers over input rows ``x``: masked self-attention
    under ``bias``, cross-attention to all of ``c``, then the FFN, each
    followed by its residual layer norm."""
    for i in range(cfg.decoder_layers):
        attn = multi_head_attention(
            params, f"dec.{i}.self", x, x, bias, cfg, rng, training)
        x = post_norm(params, f"dec.{i}.ln1", x, attn, cfg, rng, training)
        cross = multi_head_attention(
            params, f"dec.{i}.cross", x, c, None, cfg, rng, training)
        x = post_norm(params, f"dec.{i}.ln2", x, cross, cfg, rng, training)
        ffn = feed_forward(params, f"dec.{i}.ffn", x)
        x = post_norm(params, f"dec.{i}.ln3", x, ffn, cfg, rng, training)
    return x


def decode_sequence(params: dict, cfg: RunConfig, c: Tensor,
                    targets: np.ndarray, rng=None,
                    training: bool = False) -> Tensor:
    """Teacher-forced decoder pass; returns W with one row per step.

    ``c`` is [1, N+2, hidden]; the decoder input sequence is row 0
    (h_cls) followed by the gold target rows for steps 0..N-1, N+1 rows
    in total. Zero decoder layers return the input rows unchanged.
    """
    n_plus_2 = c.shape[1]
    n = n_plus_2 - 2
    targets = np.asarray(targets)
    if targets.shape != (n + 1,):
        raise ContractError("targets must have one entry per step")
    input_idx = np.concatenate([[0], targets[:n]])
    x = T.take(c, input_idx, axis=1)
    bias = causal_bias(n + 1, dtype=c.data.dtype)
    return decoder_stack(params, cfg, x, c, bias, rng, training)


def pointer_logits(w: Tensor, c: Tensor) -> Tensor:
    """Unnormalized scores of every step against every row of C."""
    out = T.matmul(w, c.swapaxes(-1, -2))
    return out.reshape(out.shape[-2], out.shape[-1])


def pointer_scores(w: Tensor, c: Tensor) -> Tensor:
    """Pointer distributions: rows softmax over the N+2 candidates."""
    return T.softmax_rows(pointer_logits(w, c))


def slm_loss(p: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-probability of the correct candidate per step.

    ``p`` holds row-stochastic pointer distributions [N+1, N+2]. A
    target of 0 would point a step at h_cls, which is never correct.
    """
    targets = np.asarray(targets)
    steps, cands = p.shape
    if targets.shape != (steps,):
        raise ContractError("one target per pointer row required")
    if np.any(targets < 1) or np.any(targets >= cands):
        raise ContractError("targets must avoid row 0 and stay in range")
    picked = T.gather_elements(p, targets)
    return T.mul(T.log(picked).mean(), -1.0)


def pointer_nll(w: Tensor, c: Tensor, targets: np.ndarray) -> Tensor:
    """slm_loss composed with the softmax, fused for stability."""
    targets = np.asarray(targets)
    cands = c.shape[1]
    if np.any(targets < 1) or np.any(targets >= cands):
        raise ContractError("targets must avoid row 0 and stay in range")
    return T.cross_entropy(pointer_logits(w, c), targets)


def greedy_unshuffle(params: dict, cfg: RunConfig, c: Tensor) -> np.ndarray:
    """Greedy decode of the display-slot order of the original document.

    Feeds back the chosen candidate row at each step; [CLS] and already
    chosen sentences are excluded from the argmax. Choosing [SEP] early
    terminates and the remaining slots follow in display order. The
    result is always a permutation of {0..N-1}.
    """
    n = c.shape[1] - 2
    sep_row = n + 1
    chosen: list[int] = []
    with T.no_grad():
        input_idx = [0]
        for _ in range(n):
            x = T.take(c, np.asarray(input_idx), axis=1)
            bias = causal_bias(len(input_idx), dtype=c.data.dtype)
            w = decoder_stack(params, cfg, x, c, bias)
            scores = w.data[0, -1] @ c.data[0].T
            scores[0] = -np.inf
            for used in chosen:
                scores[used] = -np.inf
            pick = int(np.argmax(scores))
            if pick == sep_row:
                break
            chosen.append(pick)
            input_idx.append(pick)
    order = [row - 1 for row in chosen]
    for slot in range(n):
        if slot not in order:
            order.append(slot)
    return np.asarray(order, dtype=np.int64)
