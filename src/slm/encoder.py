"""Transformer encoder over packed examples.

The input embedding sums four tables (token, position, sentence,
segment; the sentence table only with ``sentence_reps_enabled``),
normalizes and drops out in one ``tensor.embedding`` op, then runs
post-norm self-attention blocks. Padding keys are excluded from every
attention row. The sentence summary C gathers the output rows at
[CLS], at each [SENT] marker in display order, and at [SEP]; those are
the only rows the reconstructor may see. Dropout runs exactly where an
rng is given.

``encode_batch`` stops at the batch's longest real row: inputs are cut
to ``max(attention_len)`` positions and the output is
``[B, L_max, hidden]``, in pretraining, fine-tuning and every pass
without a graph alike. Padding keys are masked out of every attention
row, so the real rows equal the full-length ones up to float rounding,
and every caller reads only rows below ``attention_len``.

Readers that need a few rows ask ``encode_batch`` for them (``rows``,
[B, R] positions) and get [B, R, hidden]. The last layer's attention
op still scores every query row against every key, since a product of
fewer rows can round differently, but one block of (example, head)
slices at a time: it gathers each block's R rows before the softmax, so
the full [B, heads, L, L] scores are never stored. The softmax, the
weighted values, the output projection, the residual, both norms and
the FFN run on the R rows only. Pretraining asks for the rows its
losses read (``objectives.read_rows``), unshuffle eval for the summary
rows (``pad_rows`` fills a short example's tail with [CLS]) and decodes
that padded batch as it is, probe export for the [SENT] rows, and
classification fine-tuning and scoring for the feature rows. QA reads
nearly every row and keeps the full encode.

Under a recorded graph the backward runs on the same rows, and the
rows, their gradients and the dropout rng's state equal the full
encode's followed by the rows, by four rules:

- the dropout of the last layer's attention and of its two post-norms
  draws the uniforms of every row, as the full encode does, and keeps
  the rows' keep bits;
- weight, bias, gain and shift gradients sum over the R rows only,
  where the full encode adds exact zeros for the other rows;
- ``g @ W^T`` of the output projection and of the FFN multiplies by a
  contiguous copy of ``W^T`` (``selected`` in ``tensor.linear`` and
  ``tensor.feed_forward``), against which two or more rows round as the
  full product's rows round against the transposed view;
- attention's ``g @ V^T`` is the full-width product of the rows'
  gradients scattered into zeros, then its rows. A position repeated
  in an example (the [CLS] tail of ``pad_rows``) hands its gradient to
  its first entry, and its own is zero.

This holds bit for bit wherever numpy's matrix product rounds a row
alike for any row count, as it does on the shapes the tests cover (the
tiny profile at the benchmark's lengths and the learning check's
model); at the suite's small hidden-16 model the last layer's attention
gradients differ in the last bits. One row alone is encoded as two,
because numpy multiplies a single row by a matrix-vector product, which
rounds differently. OpenBLAS's small-matrix kernel can still round a
few-row FFN product differently on other shapes (seen at ffn 512).
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ContractError
from .model import (NEG_INF, feed_forward, multi_head_attention, post_norm,
                    select_rows)
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
          segment_ids: np.ndarray, rng=None) -> Tensor:
    """Sum the embedding tables into H0, then layer norm and dropout,
    as one ``tensor.embedding`` node. An id outside its table, negative
    or past its last row, raises ``ContractError``."""
    named = [("token", token_ids), ("position", position_ids)]
    if cfg.sentence_reps_enabled:
        named.append(("sentence", sentence_ids))
    named.append(("segment", segment_ids))
    tables = [params[f"emb.{name}"] for name, _ in named]
    for (name, idx), table in zip(named, tables):
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise ContractError(f"{name} id outside the {name} table "
                                f"[0, {table.shape[0]})")
    return T.embedding(tables, [idx for _, idx in named],
                       params["emb.ln.g"], params["emb.ln.b"], cfg.dropout,
                       rng)


def pad_rows(positions: list, fill: int = 0) -> np.ndarray:
    """[B, R] positions from one list per example, each padded with 0
    ([CLS]), or ``fill``, to the longest list."""
    rows = np.full((len(positions), max(map(len, positions))), fill,
                   dtype=np.int64)
    for b, p in enumerate(positions):
        rows[b, :len(p)] = p
    return rows


def encode(params: dict, cfg: RunConfig, h0: Tensor, bias: Tensor,
           rng=None, rows=None) -> Tensor:
    """Run the encoder stack; zero layers returns H0 unchanged.

    With ``rows`` ([B, R] positions) the last layer scores every query
    row, then computes only those rows from the softmax on: the result
    is [B, R, hidden].
    """
    if rows is not None:
        rows = np.asarray(rows)
        if not cfg.encoder_layers:
            return select_rows(h0, rows)
        if rows.shape[-1:] == (1,):
            # numpy multiplies one row by a matrix-vector product, which
            # rounds unlike the full encode's matrix product: encode two
            out = encode(params, cfg, h0, bias, rng, np.repeat(rows, 2, 1))
            return select_rows(out, np.zeros_like(rows))
    last = cfg.encoder_layers - 1
    length = h0.shape[1]
    x = h0
    for i in range(cfg.encoder_layers):
        keep = None if i < last else rows
        q = x if keep is None else select_rows(x, keep)
        attn = multi_head_attention(
            params, f"enc.{i}.attn", x, x, bias, cfg, rng, rows=keep)
        x = post_norm(params, f"enc.{i}.ln1", q, attn, cfg, rng, keep,
                      length)
        ffn = feed_forward(params, f"enc.{i}.ffn", x,
                           selected=keep is not None)
        x = post_norm(params, f"enc.{i}.ln2", x, ffn, cfg, rng, keep,
                      length)
    return x


def encode_batch(params: dict, cfg: RunConfig, examples: list[PackedExample],
                 rng=None, training: bool = False, *, rows=None) -> Tensor:
    """Stack examples, cut to the longest real row, and run embed +
    encode, dropping out from ``rng`` only when ``training``; returns
    [B, max(attention_len), hidden], or with ``rows`` ([B, R] positions
    below that width) only those rows, [B, R, hidden]."""
    rng = rng if training else None
    width = max(ex.attention_len for ex in examples)
    token_ids = np.stack([ex.token_ids[:width] for ex in examples])
    position_ids = np.stack([ex.position_ids[:width] for ex in examples])
    sentence_ids = np.stack([ex.sentence_ids[:width] for ex in examples])
    segment_ids = np.stack([ex.segment_ids[:width] for ex in examples])
    bias = attention_bias([ex.attention_len for ex in examples],
                          token_ids.shape[1],
                          dtype=params["emb.token"].data.dtype)
    h0 = embed(params, cfg, token_ids, position_ids, sentence_ids,
               segment_ids, rng)
    return encode(params, cfg, h0, bias, rng, rows)


def extract_summary(h: Tensor, ex, batch_index, rows=None) -> Tensor:
    """Rows of C: [CLS], display-ordered [SENT]s, [SEP].

    ``ex`` and ``batch_index`` are one example and its row of ``h``,
    which gives [1, N+2, hidden], or lists of examples that share one N
    and their rows, which give [k, N+2, hidden] in one gather. Its rows
    are exactly the encoder output rows at the recorded indices. With
    ``rows`` ([B, R] positions), ``h`` holds only those rows of each
    example, and each position is read at its first entry there.
    """
    if isinstance(ex, PackedExample):
        ex, batch_index = [ex], [batch_index]
    bsz, length, hidden = h.shape
    positions = np.stack([summary_positions(e) for e in ex])
    if rows is not None:
        hit = np.asarray(rows)[batch_index][:, :, None] == positions[:, None]
        if not hit.any(axis=1).all():
            raise ContractError("a summary position is not among the rows")
        positions = hit.argmax(axis=1)
    flat = np.asarray(batch_index)[:, None] * length + positions
    c = T.take(h.reshape(bsz * length, hidden), flat.reshape(-1))
    return c.reshape(*positions.shape, hidden)
