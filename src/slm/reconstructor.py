"""Sequence reconstructor: shallow decoder plus pointer network.

The decoder consumes only the sentence summary C. Teacher forcing feeds
(h_cls, then the gold-ordered sentence rows); causal self-attention
keeps step i blind to later steps while cross-attention sees all of C.
Each output row is dotted against every row of C and softmaxed, giving
one pointer distribution per reconstruction step; step i should select
the sentence originally at position i and the final step selects [SEP].

Greedy decoding runs the same decoder layers one step at a time over a
batch of documents: a key/value cache keeps the self-attention keys and
values of earlier steps and the cross-attention keys and values of C,
so each step computes one new row per document.
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
    return decoder_stack(params, cfg, x, c, bias, rng)


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


def greedy_unshuffle(params: dict, cfg: RunConfig, c):
    """Greedy decode of the display-slot order of the original document.

    ``c`` is one summary [1, N+2, hidden], which returns one order, or a
    list of summaries, decoded together and returning one order each.
    Feeds back the chosen candidate row at each step; [CLS] and already
    chosen sentences are excluded from the argmax. Choosing [SEP] early
    terminates and the remaining slots follow in display order. Each
    result is a permutation of {0..N-1}.

    The summaries share one C padded to the longest; padded rows get
    NEG_INF in cross-attention and never win the argmax. A document
    stops once it picks its [SEP] row or has placed every sentence, and
    the loop ends when all have stopped.
    """
    summaries = [c] if isinstance(c, Tensor) else c
    counts = np.array([s.shape[1] - 2 for s in summaries])
    rows = np.arange(len(summaries))
    width = int(counts.max()) + 2
    padded = np.zeros((len(summaries), width, summaries[0].shape[2]),
                      dtype=summaries[0].data.dtype)
    for b, s in enumerate(summaries):
        padded[b, :counts[b] + 2] = s.data[0]
    pad = np.arange(width) >= (counts + 2)[:, None]
    c_bias = Tensor(np.where(pad, NEG_INF, 0.0).astype(padded.dtype)
                    .reshape(len(summaries), 1, 1, width))
    blocked = pad.copy()
    blocked[:, 0] = True
    chosen: list[list[int]] = [[] for _ in summaries]
    running = counts > 0
    feed = np.zeros(len(summaries), dtype=np.int64)
    c_all = Tensor(padded)
    c_t = np.ascontiguousarray(padded.swapaxes(1, 2))
    cache: dict = {}
    with T.no_grad():
        while running.any():
            x = Tensor(padded[rows, feed][:, None])
            w = decoder_stack(params, cfg, x, c_all, None, c_bias=c_bias,
                              cache=cache)
            scores = np.matmul(w.data, c_t)[:, 0]
            scores[blocked] = -np.inf
            feed = np.argmax(scores, axis=1)
            for b in np.flatnonzero(running):
                pick = int(feed[b])
                if pick == counts[b] + 1:
                    running[b] = False
                    continue
                chosen[b].append(pick)
                blocked[b, pick] = True
                running[b] = len(chosen[b]) < counts[b]
    orders = []
    for n, picks in zip(counts, chosen):
        order = [row - 1 for row in picks]
        order += [slot for slot in range(n) if slot not in order]
        orders.append(np.asarray(order, dtype=np.int64))
    return orders[0] if isinstance(c, Tensor) else orders
