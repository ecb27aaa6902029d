"""Joint pretraining loss: masked words plus sentence reconstruction.

Word prediction projects encoder outputs at labeled positions through
the tied token embedding plus a bias; the reconstruction term is
``reconstructor.pointer_nll``, the fused cross-entropy on the pointer
logits, averaged over the N+1 steps of each example and then over the
batch. The two terms add with no weighting. The bundle also reports
three training signals of the teacher-forced pointer, read from the
decoder output with plain numpy (no graph node, no rng draw): the share
of steps whose argmax hits the target, the share whose argmax is the row
fed in at that step, and the mean entropy in nats. All three score the
unmasked logits over all N+2 rows of C, the candidate set the loss
uses; greedy decoding blocks [CLS] and the rows already placed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoder import encode_batch, extract_summary
from .errors import TrainingAbort
from .masking import IGNORE
from .reconstructor import decode_sequence, pointer_nll
from .shuffling import order_targets
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


def _pointer_signals(w: Tensor, c: Tensor,
                    targets: np.ndarray) -> tuple[int, int, float]:
    """Argmax hits on the target, argmax hits on the row fed in (row 0
    at step 0, then the previous step's target) and summed entropy
    (nats) of one example's pointer distributions, from the arrays
    alone."""
    logits = np.matmul(w.data[0], c.data[0].T).astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    best = logits.argmax(axis=1)
    hits = int(np.count_nonzero(best == targets))
    fed = np.concatenate([[0], targets[:-1]])
    self_hits = int(np.count_nonzero(best == fed))
    return hits, self_hits, float(-(np.exp(logp) * logp).sum())


def pretrain_bundle(params: dict, cfg: RunConfig,
                    examples: list[PackedExample], rng=None) -> LossBundle:
    """Forward pass over one batch of masked (and possibly shuffled)
    examples, returning losses plus the scalar graph root; dropout runs
    exactly where ``rng`` is given."""
    h = encode_batch(params, cfg, examples, rng, rng is not None)

    labels = np.stack([
        ex.mlm_labels if ex.mlm_labels is not None
        else np.full_like(ex.token_ids, IGNORE)
        for ex in examples])[:, :h.shape[1]]  # the encode stops at L_max
    l_mlm, masked_count = mlm_loss(h, params, labels)

    pointer_acc = pointer_entropy = pointer_self = float("nan")
    if cfg.sr_enabled:
        per_example = []
        hits, self_hits, entropy, slm_steps = 0, 0, 0.0, 0
        for b, ex in enumerate(examples):
            targets = order_targets(ex.perm, ex.num_sentences)
            c = extract_summary(h, ex, b)
            w = decode_sequence(params, cfg, c, targets, rng)
            per_example.append(pointer_nll(w, c, targets))
            slm_steps += len(targets)
            ex_hits, ex_self, ex_entropy = _pointer_signals(w, c, targets)
            hits += ex_hits
            self_hits += ex_self
            entropy += ex_entropy
        pointer_acc, pointer_entropy = hits / slm_steps, entropy / slm_steps
        pointer_self = self_hits / slm_steps
        acc = per_example[0]
        for term in per_example[1:]:
            acc = acc + term
        l_slm = T.mul(acc, 1.0 / len(per_example))
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
