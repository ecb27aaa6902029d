"""Transformer encoder over packed examples.

The input embedding sums four tables (token, position, sentence,
segment), normalizes and drops out, then runs post-norm self-attention
blocks. Padding keys are excluded from every attention row. The
sentence summary C gathers the output rows at [CLS], at each [SENT]
marker in display order, and at [SEP]; those are the only rows the
reconstructor may see.

``encode_batch`` stops at the batch's longest real row in every pass
without graph recording (``tensor.no_grad``) and in fine-tuning, whose
loops pass ``trim=True``: inputs are cut to ``max(attention_len)``
positions and the output is ``[B, L_max, hidden]``. Padding keys are
masked out of every attention row, so the real rows equal the
full-length ones up to float rounding, and every trimmed caller reads
only rows below ``attention_len``. Pretraining keeps the full
``seq_len`` on purpose: the seeded learning check (acceptance
criterion 5) is sensitive to the exact float bits of pretraining, and a
shorter reduction order changes them.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ContractError
from .model import NEG_INF, feed_forward, multi_head_attention, post_norm
from .shuffling import summary_positions
from .tensor import Tensor
from .textpipe import PackedExample


def attention_bias(attention_lens, seq_len: int, dtype=np.float32) -> Tensor:
    """[B,1,1,L] additive mask: 0 on real tokens, NEG_INF on padding."""
    b = len(attention_lens)
    bias = np.zeros((b, 1, 1, seq_len), dtype=dtype)
    for i, n in enumerate(attention_lens):
        bias[i, :, :, n:] = NEG_INF
    return Tensor(bias)


def embed(params: dict, cfg: RunConfig, token_ids: np.ndarray,
          position_ids: np.ndarray, sentence_ids: np.ndarray,
          segment_ids: np.ndarray, rng=None, training: bool = False) -> Tensor:
    """Sum the embedding tables into H0, then layer norm and dropout."""
    bsz, length = token_ids.shape
    if token_ids.max() >= params["emb.token"].shape[0]:
        raise ContractError("token id out of vocabulary range")
    if position_ids.max() >= params["emb.position"].shape[0]:
        raise ContractError("position id exceeds the position table")
    if sentence_ids.max() >= params["emb.sentence"].shape[0]:
        raise ContractError("sentence id exceeds the sentence table")

    def look(table: Tensor, ids: np.ndarray) -> Tensor:
        h = table.shape[1]
        return T.take(table, ids.reshape(-1)).reshape(bsz, length, h)

    h0 = look(params["emb.token"], token_ids) + look(
        params["emb.position"], position_ids)
    if cfg.sentence_reps_enabled:
        h0 = h0 + look(params["emb.sentence"], sentence_ids)
    h0 = h0 + look(params["emb.segment"], segment_ids)
    h0 = T.layer_norm(h0, params["emb.ln.g"], params["emb.ln.b"],
                      cfg.layer_norm_eps)
    return T.dropout(h0, cfg.dropout, rng, training)


def encode(params: dict, cfg: RunConfig, h0: Tensor, bias: Tensor,
           rng=None, training: bool = False) -> Tensor:
    """Run the encoder stack; zero layers returns H0 unchanged."""
    x = h0
    for i in range(cfg.encoder_layers):
        attn = multi_head_attention(
            params, f"enc.{i}.attn", x, x, bias, cfg, rng, training)
        x = post_norm(params, f"enc.{i}.ln1", x, attn, cfg, rng, training)
        ffn = feed_forward(params, f"enc.{i}.ffn", x)
        x = post_norm(params, f"enc.{i}.ln2", x, ffn, cfg, rng, training)
    return x


def encode_batch(params: dict, cfg: RunConfig, examples: list[PackedExample],
                 rng=None, training: bool = False,
                 trim: bool | None = None) -> Tensor:
    """Stack examples into arrays and run embed + encode.

    Returns [B, max(attention_len), hidden] when trimmed and
    [B, seq_len, hidden] otherwise. ``trim=None`` trims exactly when no
    graph is recorded; fine-tuning passes ``trim=True``.
    """
    # Pretraining records a graph with trim=None and so keeps every
    # position: its arithmetic, and with it the seeded learning check
    # (acceptance criterion 5), stays bit-for-bit as it was. Every other
    # pass only pays for positions that hold real tokens.
    if trim is None:
        trim = not T.grad_enabled
    width = max(ex.attention_len for ex in examples) if trim else None
    token_ids = np.stack([ex.token_ids[:width] for ex in examples])
    position_ids = np.stack([ex.position_ids[:width] for ex in examples])
    sentence_ids = np.stack([ex.sentence_ids[:width] for ex in examples])
    segment_ids = np.stack([ex.segment_ids[:width] for ex in examples])
    bias = attention_bias([ex.attention_len for ex in examples],
                          token_ids.shape[1],
                          dtype=params["emb.token"].data.dtype)
    h0 = embed(params, cfg, token_ids, position_ids, sentence_ids,
               segment_ids, rng, training)
    return encode(params, cfg, h0, bias, rng, training)


def extract_summary(h: Tensor, ex: PackedExample, batch_index: int) -> Tensor:
    """Rows of C for one example: [CLS], display-ordered [SENT]s, [SEP].

    Returns a [1, N+2, hidden] tensor whose rows are exactly the encoder
    output rows at the recorded indices.
    """
    bsz, length, hidden = h.shape
    rows = batch_index * length + summary_positions(ex)
    c = T.take(h.reshape(bsz * length, hidden), rows)
    return c.reshape(1, len(rows), hidden)
