"""Parameters and shared transformer blocks.

One flat dict maps parameter names to Tensors. Encoder-side names start
with ``emb.``, ``enc.`` or ``mlm.``; reconstructor names start with
``dec.``. The word-prediction projection is tied to the token embedding
table, so only a bias appears under ``mlm.``. Blocks follow the
post-norm arrangement: sublayer output is dropped out, added to the
residual, then layer-normalized, all in one ``tensor.residual_norm`` op.
Every affine projection is one ``tensor.linear`` op; the q, k and v
projections write the heads-split layout attention reads, so no copy
splits them. The FFN (linear, gelu, linear) is one
``tensor.feed_forward`` op, which keeps nothing beyond its inputs for
the backward. A block drops out exactly when given an rng.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import RunConfig
from .errors import ContractError
from .tensor import Tensor

INIT_STD = 0.02
NEG_INF = -1e9


def trunc_normal(shape, std: float, rng, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) with draws outside 2 std resampled."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x.astype(dtype)


def _attn_shapes(prefix: str, h: int):
    out = []
    for name in ("wq", "wk", "wv", "wo"):
        out.append((f"{prefix}.{name}", (h, h)))
    for name in ("bq", "bk", "bv", "bo"):
        out.append((f"{prefix}.{name}", (h,)))
    return out


def _ln_shapes(prefix: str, h: int):
    return [(f"{prefix}.g", (h,)), (f"{prefix}.b", (h,))]


def param_shapes(cfg: RunConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) listing for the full model."""
    h, f = cfg.hidden, cfg.ffn
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("emb.token", (cfg.vocab_size, h)),
        ("emb.position", (cfg.seq_len, h)),
        ("emb.sentence", (cfg.max_sentences + 1, h)),
        ("emb.segment", (2, h)),
    ]
    shapes += _ln_shapes("emb.ln", h)
    for i in range(cfg.encoder_layers):
        shapes += _attn_shapes(f"enc.{i}.attn", h)
        shapes += _ln_shapes(f"enc.{i}.ln1", h)
        shapes += [(f"enc.{i}.ffn.w1", (h, f)), (f"enc.{i}.ffn.b1", (f,)),
                   (f"enc.{i}.ffn.w2", (f, h)), (f"enc.{i}.ffn.b2", (h,))]
        shapes += _ln_shapes(f"enc.{i}.ln2", h)
    shapes.append(("mlm.bias", (cfg.vocab_size,)))
    for i in range(cfg.decoder_layers):
        shapes += _attn_shapes(f"dec.{i}.self", h)
        shapes += _ln_shapes(f"dec.{i}.ln1", h)
        shapes += _attn_shapes(f"dec.{i}.cross", h)
        shapes += _ln_shapes(f"dec.{i}.ln2", h)
        shapes += [(f"dec.{i}.ffn.w1", (h, f)), (f"dec.{i}.ffn.b1", (f,)),
                   (f"dec.{i}.ffn.w2", (f, h)), (f"dec.{i}.ffn.b2", (h,))]
        shapes += _ln_shapes(f"dec.{i}.ln3", h)
    return shapes


def init_params(cfg: RunConfig, rng, dtype=np.float32) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg):
        if name.endswith(".g"):
            data = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = trunc_normal(shape, INIT_STD, rng, dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def parameter_counts(cfg: RunConfig) -> tuple[int, int]:
    """(encoder-side, reconstructor) parameter counts from shapes alone."""
    enc = dec = 0
    for name, shape in param_shapes(cfg):
        n = int(np.prod(shape))
        if name.startswith("dec."):
            dec += n
        else:
            enc += n
    return enc, dec


def select_rows(h: Tensor, rows) -> Tensor:
    """The rows ``rows`` ([B, R] positions on the next-to-last axis) of
    each example of ``h`` ([B, ..., L, D]) in one ``take``:
    [B, ..., R, D]."""
    *lead, length, width = h.shape
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] != lead[0]:
        raise ContractError(f"rows must be [{lead[0]}, R] positions, "
                            f"got shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= length):
        raise ContractError(f"row positions must lie in [0, {length})")
    groups = int(np.prod(lead[1:], dtype=np.int64))
    starts = np.arange(lead[0] * groups).reshape(lead[0], groups, 1) * length
    flat = (starts + rows[:, None, :]).reshape(-1)
    return T.take(h.reshape(-1, width), flat).reshape(
        *lead, rows.shape[1], width)


def multi_head_attention(params: dict, prefix: str, x_q: Tensor,
                         x_kv: Tensor | None, bias, cfg: RunConfig, rng,
                         cache: dict | None = None, rows=None) -> Tensor:
    """Scaled dot-product attention over the last two axes.

    ``bias`` (a Tensor, or None) is an additive mask broadcast onto the
    [B, heads, L_q, L_k] score array; masked keys carry NEG_INF and
    receive zero weight. The q, k and v projections come out split into
    heads, [B, heads, L, head width], each one ``tensor.linear`` node.
    Between the projections one ``tensor.attention``
    op scores the heads-split queries against the keys, scales by
    1/sqrt(head width), masks, takes the row softmax, drops out and
    weights the values, block by block, and returns the heads merged:
    one graph node for the encoder, the decoder and the cached greedy
    decode alike.

    ``cache`` serves step-by-step decoding without a graph: a dict that
    keeps each prefix's keys and values between calls. The keys and
    values of ``x_kv`` are appended to the prefix's cached ones, and
    ``x_kv=None`` attends to the cached ones as they stand.

    ``rows`` ([B, R] positions) keeps only those query rows: the op
    scores every row of ``x_q``, so each score is the product the full
    attention computes, with its rounding, then gathers the R rows, and
    the softmax, the weighted values and the output projection run on
    them: [B, R, hidden]. The attention op draws the dropout of every
    row, and the output projection takes its input's gradient as a full
    pass rounds it (``tensor.linear``'s ``selected``).
    """
    nh = cfg.heads
    dh = cfg.hidden // nh

    def proj(x, name, heads=None, selected=False):
        return T.linear(x, params[f"{prefix}.w{name}"],
                        params[f"{prefix}.b{name}"], heads, selected)

    q = proj(x_q, "q", nh)
    if x_kv is None:
        k, v = cache[prefix]
    else:
        k = proj(x_kv, "k", nh)
        v = proj(x_kv, "v", nh)
        if cache is not None:
            if prefix in cache:
                old_k, old_v = cache[prefix]
                k = Tensor(np.concatenate([old_k.data, k.data], axis=2))
                v = Tensor(np.concatenate([old_v.data, v.data], axis=2))
            cache[prefix] = (k, v)

    ctx = T.attention(q, k, v, 1.0 / np.sqrt(dh), bias, cfg.dropout, rng,
                      rows)
    return proj(ctx, "o", selected=rows is not None)


def feed_forward(params: dict, prefix: str, x: Tensor,
                 selected: bool = False) -> Tensor:
    """``linear(gelu(linear(x)))``, one graph node; ``selected`` marks
    ``x`` as selected rows (``tensor.linear``)."""
    return T.feed_forward(x, *(params[f"{prefix}.{name}"]
                               for name in ("w1", "b1", "w2", "b2")),
                          selected=selected)


def post_norm(params: dict, prefix: str, residual: Tensor, out: Tensor,
              cfg: RunConfig, rng, rows=None,
              length: int | None = None) -> Tensor:
    """``layer_norm(residual + dropout(out))``, one graph node; with
    ``rows`` the operands are those rows of a ``length``-row step."""
    return T.residual_norm(residual, out, params[f"{prefix}.g"],
                           params[f"{prefix}.b"], cfg.dropout, rng, rows,
                           length)
