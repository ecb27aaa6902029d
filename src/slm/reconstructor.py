"""Sequence reconstructor: shallow decoder plus pointer network.

The decoder consumes only the sentence summary C. Teacher forcing feeds
(h_cls, then the gold-ordered sentence rows); causal self-attention
keeps step i blind to later steps while cross-attention sees all of C.
Each output row is dotted against every row of C, giving one row of
pointer logits per reconstruction step; step i should select the
sentence originally at position i and the final step selects [SEP]. The
loss (``pointer_nll``) is one fused log-softmax cross-entropy on those
logits.

Teacher forcing runs once per group of examples with the same N: their
summaries stack into [k, N+2, hidden] and their decoder inputs into
[k, N+1, hidden] under one causal mask, and one cross-entropy gives
each example its own mean. Every op computes each example's slice as
that example alone would, and each decoder parameter reaches the group
as a ``tensor.fan_out`` view, which adds the examples' gradients to the
parameter in example order. Without dropout the loss and every
gradient therefore have the bits of a pass per example. The group's
dropout draws its masks at the group's shapes, in the order the pass
runs.

Greedy decoding runs the same decoder layers one step at a time over a
padded batch of summaries, as the row-selected encode returns them: a
key/value cache keeps the self-attention keys and values of earlier
steps and the cross-attention keys and values of C, so each step
computes one new row per document. Each document's picks, blocked rows
and placed count live in arrays over the batch.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ContractError
from .model import (NEG_INF, feed_forward, multi_head_attention, post_norm,
                    select_rows)
from .tensor import Tensor


def causal_bias(steps: int, dtype=np.float32) -> Tensor:
    bias = np.triu(np.full((steps, steps), NEG_INF, dtype=dtype), k=1)
    return Tensor(bias.reshape(1, 1, steps, steps))


def decoder_stack(params: dict, cfg: RunConfig, x: Tensor, c: Tensor,
                  bias: Tensor | None, rng=None, c_bias: Tensor | None = None,
                  cache: dict | None = None) -> Tensor:
    """The decoder layers over input rows ``x``: masked self-attention
    under ``bias``, cross-attention to all of ``c`` under ``c_bias``,
    then the FFN, each followed by its residual layer norm.

    With ``cache`` (a dict, empty before the first step; no graph) the
    call is one step of incremental decoding. ``x`` then holds only the
    new row of each sequence; its self-attention keys and values are
    appended to those of the earlier steps, which it attends to in full,
    so ``bias`` is None. The cross-attention keys and values of ``c`` are
    computed on the first step and reused after it.
    """
    for i in range(cfg.decoder_layers):
        attn = multi_head_attention(
            params, f"dec.{i}.self", x, x, bias, cfg, rng, cache)
        x = post_norm(params, f"dec.{i}.ln1", x, attn, cfg, rng)
        prefix = f"dec.{i}.cross"
        kv = None if cache is not None and prefix in cache else c
        cross = multi_head_attention(
            params, prefix, x, kv, c_bias, cfg, rng, cache)
        x = post_norm(params, f"dec.{i}.ln2", x, cross, cfg, rng)
        ffn = feed_forward(params, f"dec.{i}.ffn", x)
        x = post_norm(params, f"dec.{i}.ln3", x, ffn, cfg, rng)
    return x


def decode_sequence(params: dict, cfg: RunConfig, c: Tensor,
                    targets: np.ndarray, rng=None) -> Tensor:
    """Teacher-forced decoder pass over a group of examples that share
    one N; returns W [k, N+1, hidden], one row per step.

    ``c`` is the group's summaries [k, N+2, hidden] and ``targets`` its
    [k, N+1] gold targets. Each example's decoder input is its own row 0
    (h_cls) followed by its gold target rows for steps 0..N-1, N+1 rows;
    the k sequences run through ``decoder_stack`` together under one
    ``causal_bias(N + 1)``. Every op computes each slice as it would
    that example alone, so slice j of W has the bits of a one-example
    pass. ``params`` may hold each decoder parameter as the group's
    ``tensor.fan_out`` view, which hands the gradient of every example
    to the parameter separately. ``rng`` draws the group's dropout.
    Zero decoder layers return the input rows unchanged.
    """
    k, n_plus_2 = c.shape[:2]
    n = n_plus_2 - 2
    targets = np.asarray(targets)
    if targets.shape != (k, n + 1):
        raise ContractError("targets must have one entry per step of "
                            "each example")
    inputs = np.concatenate([np.zeros((k, 1), dtype=targets.dtype),
                             targets[:, :n]], axis=1)
    x = select_rows(c, inputs)
    bias = causal_bias(n + 1, dtype=c.data.dtype)
    return decoder_stack(params, cfg, x, c, bias, rng)


def pointer_logits(w: Tensor, c: Tensor) -> Tensor:
    """Unnormalized scores of every step against every row of C, per
    example: [k, N+1, N+2]."""
    return T.matmul(w, c.swapaxes(-1, -2))


def pointer_nll(w: Tensor, c: Tensor, targets: np.ndarray) -> Tensor:
    """The ordering loss of each example of a group, [k]: the mean over
    its steps of the negative log-softmax of each step's logits at its
    target row, one fused cross-entropy for the group. A target of 0
    would point a step at h_cls, which is never correct."""
    targets = np.asarray(targets)
    cands = c.shape[1]
    if np.any(targets < 1) or np.any(targets >= cands):
        raise ContractError("targets must avoid row 0 and stay in range")
    return T.cross_entropy(pointer_logits(w, c), targets).reshape(
        c.shape[0])


def greedy_unshuffle(params: dict, cfg: RunConfig, c: Tensor, counts=None):
    """Greedy decode of the display-slot order of the original document.

    ``c`` is one summary [1, N+2, hidden], which returns one order, or
    with ``counts`` a padded batch [B, W, hidden] of summaries whose
    document b fills its first ``counts[b] + 2`` rows, decoded together
    and returning one order each. The pad rows may hold anything finite.
    Feeds back the chosen candidate row at each step; [CLS] and already
    chosen sentences are excluded from the argmax. Choosing [SEP] early
    terminates and the remaining slots follow in display order. Each
    result is a permutation of {0..N-1}.

    Pad rows get NEG_INF in cross-attention and never win the argmax. A
    document stops once it picks its [SEP] row or has placed every
    sentence, and the loop ends when all have stopped.
    """
    single = counts is None
    counts = np.asarray([c.shape[1] - 2] if single else counts)
    data = c.data
    bsz, width = data.shape[:2]
    rows = np.arange(bsz)
    pad = np.arange(width) >= (counts + 2)[:, None]
    c_bias = Tensor(np.where(pad, NEG_INF, 0.0).astype(data.dtype)
                    .reshape(bsz, 1, 1, width))
    blocked = pad.copy()
    blocked[:, 0] = True
    picks = np.zeros((bsz, width), dtype=np.int64)
    placed = np.zeros(bsz, dtype=np.int64)
    running = counts > 0
    feed = np.zeros(bsz, dtype=np.int64)
    c_t = np.ascontiguousarray(data.swapaxes(1, 2))
    cache: dict = {}
    with T.no_grad():
        while running.any():
            x = Tensor(data[rows, feed][:, None])
            w = decoder_stack(params, cfg, x, c, None, c_bias=c_bias,
                              cache=cache)
            scores = np.matmul(w.data, c_t)[:, 0]
            scores[blocked] = -np.inf
            feed = np.argmax(scores, axis=1)
            running &= feed != counts + 1
            live = np.flatnonzero(running)
            picks[live, placed[live]] = feed[live]
            blocked[live, feed[live]] = True
            placed[live] += 1
            running &= placed < counts
    orders = [np.concatenate([picks[b, :placed[b]] - 1,
                              np.flatnonzero(~blocked[b, 1:n + 1])])
              for b, n in enumerate(counts)]
    return orders[0] if single else orders
