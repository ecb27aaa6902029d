"""Joint pretraining loss: masked words plus sentence reconstruction.

Word prediction projects encoder outputs at labeled positions through
the tied token embedding plus a bias; the reconstruction term is
``reconstructor.pointer_nll``, the fused cross-entropy on the pointer
logits, averaged over the N+1 steps of each example and then over the
batch. The two terms add with no weighting.

Both terms read a few encoder rows: the masked positions and the rows
of C. ``read_rows`` gathers each example's sorted union of them, with
[CLS] always among them, and the encoder's last layer runs only there
(``encoder.encode_batch`` with ``rows``); the word labels are read at
those rows, ``IGNORE`` on the [CLS] padding, and ``extract_summary``
finds each summary position among them. The row path follows the four
rules in ``encoder``'s docstring, so the losses, every gradient and the
dropout rng's state are those of the full encode, bit for bit on the
tiny profile.

The reconstructor runs once per group of examples with the same N
(``equal_n_groups``), one ``decode_sequence`` and one ``pointer_nll``
each, and its result keeps the bits of one pass per example: each
decoder parameter reaches the groups through ``tensor.fan_out``, whose
backward adds the examples' gradients in example order, also after an
earlier micro-batch's; ``reconstructor.replay_dropout`` draws the
decoder's dropout example by example before any group runs; and each
example keeps its own loss term, the terms added in example order
before the mean over the batch, ``mul(((t0 + t1) + ...), 1/B)``.

The bundle also reports three training signals of the teacher-forced
pointer, read from each group's decoder output with plain numpy (no
graph node, no rng draw): the share of steps whose argmax hits the
target, the share whose argmax is the row fed in at that step, and the
mean entropy in nats, its per-example sums added in example order. All
three score the unmasked logits over all N+2 rows of C, the candidate
set the loss uses; greedy decoding blocks [CLS] and the rows already
placed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoder import encode_batch, extract_summary, pad_rows
from .errors import TrainingAbort
from .masking import IGNORE
from .reconstructor import decode_sequence, pointer_nll, replay_dropout
from .shuffling import order_targets, summary_positions
from .tensor import Tensor
from .textpipe import PackedExample

log = logging.getLogger(__name__)


@dataclass
class LossBundle:
    l_mlm: float
    l_slm: float
    total: float
    masked_count: int
    pointer_acc: float      # nan without the ordering objective
    pointer_entropy: float  # nats; nan without the ordering objective
    pointer_self: float     # nan without the ordering objective
    loss: Tensor


def mlm_loss(h: Tensor, params: dict, labels: np.ndarray) -> tuple[Tensor, int]:
    """Mean cross-entropy at labeled positions; zero when none exist."""
    bsz, length, hidden = h.shape
    flat_labels = labels.reshape(-1)
    sel = np.flatnonzero(flat_labels != IGNORE)
    if sel.size == 0:
        log.warning("mlm_loss: no labeled positions in this batch")
        zero = Tensor(np.asarray(0.0, dtype=h.data.dtype))
        return zero, 0
    rows = T.take(h.reshape(bsz * length, hidden), sel)
    logits = T.linear(rows, params["emb.token"].swapaxes(0, 1),
                      params["mlm.bias"])
    return T.cross_entropy(logits, flat_labels[sel]), int(sel.size)


def _pointer_signals(w: Tensor, c: Tensor, targets: np.ndarray):
    """Per example of a group: argmax hits on the target, argmax hits on
    the row fed in (row 0 at step 0, then the previous step's target)
    and the summed entropy (nats) of its pointer distributions, from the
    arrays alone. The logits are the group's W against its transposed
    C, in float64; returns three [k] sequences."""
    logits = np.matmul(w.data, c.data.swapaxes(1, 2)).astype(np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    best = logits.argmax(axis=-1)
    hits = np.count_nonzero(best == targets, axis=1)
    fed = np.concatenate([np.zeros_like(targets[:, :1]), targets[:, :-1]],
                         axis=1)
    self_hits = np.count_nonzero(best == fed, axis=1)
    return hits, self_hits, [float(-(np.exp(lp) * lp).sum()) for lp in logp]


def equal_n_groups(examples: list[PackedExample]) -> list[np.ndarray]:
    """The batch indices of the examples of each sentence count N, in
    order of each count's first example."""
    groups: dict[int, list[int]] = {}
    for b, ex in enumerate(examples):
        groups.setdefault(ex.num_sentences, []).append(b)
    return [np.asarray(idx) for idx in groups.values()]


def read_rows(cfg: RunConfig, examples: list[PackedExample]):
    """The rows the losses read and the word labels at them: [B, R]
    positions, each example's sorted union of its labelled positions,
    [CLS] and, with the ordering objective, its summary positions,
    padded with [CLS] (``pad_rows``); and [B, R] labels, ``IGNORE`` at
    the padding."""
    positions, labels = [], []
    for ex in examples:
        lab = ex.mlm_labels if ex.mlm_labels is not None \
            else np.full_like(ex.token_ids, IGNORE)
        read = [[0], np.flatnonzero(lab != IGNORE)]
        if cfg.sr_enabled:
            read.append(summary_positions(ex))
        positions.append(np.unique(np.concatenate(read)))
        labels.append(lab[positions[-1]])
    return pad_rows(positions), pad_rows(labels, IGNORE)


def pretrain_bundle(params: dict, cfg: RunConfig,
                    examples: list[PackedExample], rng=None) -> LossBundle:
    """Forward pass over one batch of masked (and possibly shuffled)
    examples, returning losses plus the scalar graph root; dropout runs
    exactly where ``rng`` is given. The last encoder layer runs only at
    the rows the losses read (``read_rows``)."""
    rows, labels = read_rows(cfg, examples)
    h = encode_batch(params, cfg, examples, rng, rng is not None, rows=rows)
    l_mlm, masked_count = mlm_loss(h, params, labels)

    pointer_acc = pointer_entropy = pointer_self = float("nan")
    if cfg.sr_enabled:
        bsz = len(examples)
        groups = equal_n_groups(examples)
        names = [name for name in params if name.startswith("dec.")]
        views = T.fan_out([params[name] for name in names], groups)
        drops = replay_dropout(cfg, rng, [ex.num_sentences for ex in examples],
                               groups)
        terms, entropies = [None] * bsz, [0.0] * bsz
        hits = self_hits = slm_steps = 0
        for g, idx in enumerate(groups):
            group = [examples[b] for b in idx]
            targets = np.stack([order_targets(ex.perm, ex.num_sentences)
                                for ex in group])
            c = extract_summary(h, group, idx, rows)
            w = decode_sequence({name: v[g] for name, v in zip(names, views)},
                                cfg, c, targets, drops[g])
            nll = pointer_nll(w, c, targets)
            g_hits, g_self, g_entropy = _pointer_signals(w, c, targets)
            hits += int(g_hits.sum())
            self_hits += int(g_self.sum())
            slm_steps += targets.size
            for j, b in enumerate(idx):
                terms[b] = T.take(nll, [j])
                entropies[b] = g_entropy[j]
        # example by example, as a batch run one example at a time adds
        entropy = 0.0
        for value in entropies:
            entropy += value
        pointer_acc, pointer_entropy = hits / slm_steps, entropy / slm_steps
        pointer_self = self_hits / slm_steps
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        l_slm = T.reshape(T.mul(acc, 1.0 / bsz), ())
    else:
        l_slm = Tensor(np.asarray(0.0, dtype=h.data.dtype))

    loss = l_mlm + l_slm
    if not np.isfinite(loss.data):
        raise TrainingAbort("non-finite training loss")
    return LossBundle(
        l_mlm=float(l_mlm.data),
        l_slm=float(l_slm.data),
        total=float(loss.data),
        masked_count=masked_count,
        pointer_acc=pointer_acc,
        pointer_entropy=pointer_entropy,
        pointer_self=pointer_self,
        loss=loss,
    )
