"""Pretraining loop and greedy-reordering evaluation.

One epoch is one pass over the packed examples in their packed order;
what changes between epochs is the sampling: masking positions, the
batch-level shuffle decisions, and the permutations are all drawn from
a counter-based stream seeded by (seed, purpose, epoch, step), so a run
is reproducible end to end and two runs with the same seed, config and
corpus write byte-identical metrics when timing is disabled.

Metrics are an append-only CSV (step,lr,l_mlm,l_slm,total,shuffled,
tokens_per_s,grad_norm,masked_count,pointer_acc,pointer_entropy,
pointer_self) preceded by `# key=value` lines echoing the full config. With
`accum_steps > 1` a row's losses are means over the step's
micro-batches, `shuffled` counts its shuffled micro-batches and
`masked_count` sums their MLM targets. `grad_norm` is the global
gradient norm before clipping. `pointer_acc` is the share of
teacher-forced reconstruction steps whose argmax pointer hits the
target, `pointer_entropy` the mean entropy of those pointer
distributions in nats and `pointer_self` the share of steps whose
argmax is the row fed in at that step (row 0 at step 0, then the
previous step's target). All three score the unmasked logits over all
N+2 rows of C, are means over the micro-batches and are `nan` when the
ordering objective is off.
"""
from __future__ import annotations

import logging
import os
import time

import numpy as np

from .checkpoint import save_checkpoint
from .config import RunConfig, config_echo
# unused here, but perfbench's tracer patches trainer.extract_summary by name
from .encoder import encode_batch, extract_summary, pad_rows
from .errors import ContractError, DataError
from .masking import apply_span_masking
from .model import init_params
from .objectives import pretrain_bundle
from .optim import AdamState, adam_update, clip_global_norm, lr_schedule, zero_grads
from .reconstructor import greedy_unshuffle
from .shuffling import (apply_shuffle, batch_shuffle_mask, identity_record,
                        sample_permutation, summary_positions)
from .tensor import backward, no_grad
from .textpipe import Document, PackedExample, pack_example

log = logging.getLogger(__name__)

# rng stream tags: keep the packing, sampling and dropout streams apart
_PACK, _SAMPLE, _DROPOUT, _EVAL = 1, 2, 3, 4

METRICS_COLUMNS = ("step,lr,l_mlm,l_slm,total,shuffled,tokens_per_s,"
                   "grad_norm,masked_count,pointer_acc,pointer_entropy,"
                   "pointer_self")


def pack_corpus(docs: list[Document], cfg: RunConfig) -> list[PackedExample]:
    """Merge over-long documents and pack every doc that fits."""
    rng = np.random.default_rng([cfg.seed, _PACK])
    out = []
    for doc in docs:
        ex = pack_example(doc, cfg.seq_len, cfg.max_sentences, rng,
                          use_sentence_tokens=cfg.sentence_reps_enabled)
        if ex is not None:
            out.append(ex)
    if not out:
        raise DataError("no document in the corpus fits the sequence length")
    return out


def prepare_batch(packed: list[PackedExample], step: int,
                  cfg: RunConfig) -> tuple[list[PackedExample], bool]:
    """Mask and (for a coin-flip fraction of batches) shuffle one batch.

    Examples cycle in packed order; the per-step rng is seeded with the
    epoch so every pass over the data redraws masks and permutations.
    """
    n = len(packed)
    start = (step * cfg.batch_size) % n
    epoch = (step * cfg.batch_size) // n
    rng = np.random.default_rng([cfg.seed, _SAMPLE, epoch, step])
    # shuffling needs the sentence markers, so without them the batch
    # coin is never flipped
    shuffle_batch = (cfg.sentence_reps_enabled
                     and batch_shuffle_mask(cfg.shuffle_fraction, rng))
    batch = []
    for k in range(cfg.batch_size):
        ex = packed[(start + k) % n]
        ex = apply_span_masking(ex, cfg, rng)
        if cfg.sentence_reps_enabled:
            if shuffle_batch:
                perm = sample_permutation(ex.num_sentences, rng)
                ex = apply_shuffle(ex, perm)
            else:
                ex = identity_record(ex)
        batch.append(ex)
    return batch, shuffle_batch


def train_loop(docs: list[Document], cfg: RunConfig, out_dir: str,
               params: dict | None = None) -> dict:
    """Run cfg.steps optimizer steps and return summary statistics."""
    os.makedirs(out_dir, exist_ok=True)
    packed = pack_corpus(docs, cfg)
    if params is None:
        params = init_params(cfg, np.random.default_rng(cfg.seed))
    for p in params.values():
        p.requires_grad = True
    state = AdamState()

    metrics_path = os.path.join(out_dir, "metrics.csv")
    last = {}
    shuffled_batches = 0
    # a diverging run overflows on its way to the loss and gradient
    # checks, which end it with one error; numpy need not warn first
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as metrics, \
            np.errstate(over="ignore", invalid="ignore"):
        for key, value in config_echo(cfg):
            metrics.write(f"# {key}={value}\n")
        metrics.write(METRICS_COLUMNS + "\n")

        for step in range(cfg.steps):
            t0 = time.perf_counter() if cfg.timing_enabled else 0.0
            zero_grads(params)
            tokens = 0
            shuffled = 0
            masked = 0
            losses = []
            drop_rng = np.random.default_rng([cfg.seed, _DROPOUT, step])
            for micro in range(cfg.accum_steps):
                batch, micro_shuffled = prepare_batch(
                    packed, step * cfg.accum_steps + micro, cfg)
                bundle = pretrain_bundle(params, cfg, batch, drop_rng)
                backward(bundle.loss)
                tokens += sum(ex.attention_len for ex in batch)
                shuffled += int(micro_shuffled)
                masked += bundle.masked_count
                losses.append((bundle.l_mlm, bundle.l_slm, bundle.total,
                               bundle.pointer_acc, bundle.pointer_entropy,
                               bundle.pointer_self))
            # mean over micro-batches; with one micro-batch each mean is
            # that batch's value, bit for bit
            l_mlm, l_slm, total, pointer_acc, pointer_entropy, pointer_self = (
                sum(col) / len(losses) for col in zip(*losses))
            if cfg.accum_steps > 1:
                for p in params.values():
                    if p.grad is not None:
                        p.grad /= cfg.accum_steps
            grad_norm = clip_global_norm(params)
            lr = lr_schedule(step, cfg)
            adam_update(params, state, lr, cfg)
            shuffled_batches += shuffled

            if cfg.timing_enabled:
                dt = max(time.perf_counter() - t0, 1e-9)
                tokens_per_s = tokens / dt
            else:
                tokens_per_s = 0.0
            metrics.write(f"{step},{lr:.10g},{l_mlm:.6f},{l_slm:.6f},"
                          f"{total:.6f},{shuffled},{tokens_per_s:.6g},"
                          f"{grad_norm:.8g},{masked},{pointer_acc:.6f},"
                          f"{pointer_entropy:.6f},{pointer_self:.6f}\n")
            if cfg.log_every and step % cfg.log_every == 0:
                log.info("step %d lr %.3g mlm %.4f slm %.4f total %.4f",
                         step, lr, l_mlm, l_slm, total)
            last = {"step": step, "l_mlm": l_mlm, "l_slm": l_slm,
                    "total": total}
            if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(os.path.join(out_dir, f"ckpt-{step + 1}.bin"),
                                cfg, params, step + 1, state)

    final_path = os.path.join(out_dir, "ckpt-final.bin")
    save_checkpoint(final_path, cfg, params, cfg.steps, state)
    last["checkpoint"] = final_path
    last["metrics"] = metrics_path
    last["shuffled_batches"] = shuffled_batches
    last["params"] = params
    return last


def kendall_tau(pred: np.ndarray, gold: np.ndarray) -> float:
    """Rank correlation between two same-length permutations.

    Single-element orders have no pairs to compare and count as perfect
    agreement.
    """
    n = len(pred)
    if n < 2:
        return 1.0
    pred, gold = np.asarray(pred), np.asarray(gold)
    i, j = np.triu_indices(n, k=1)
    concordant = int(np.count_nonzero(
        (pred[i] < pred[j]) == (gold[i] < gold[j])))
    total = len(i)
    return (2.0 * concordant - total) / total


def evaluate_unshuffle(params: dict, cfg: RunConfig,
                       packed: list[PackedExample], seed: int = 0) -> dict:
    """Shuffle each example, greedily reorder it, and score the result.

    Returns exact-match rate and mean Kendall tau of the predicted
    display-slot order of each original document against the truth,
    ``pos_acc``, the share of display slots placed correctly, and
    ``by_n``, the n/em/tau of the documents of each sentence count.
    Each encode batch is decoded as one batch: the encoder's last layer
    runs only at the summary rows, padded with [CLS] rows to the longest
    document's, and greedy decoding reads that padded batch as it is.
    """
    if not cfg.sentence_reps_enabled:
        raise ContractError(
            "unshuffle eval needs sentence representations enabled")
    if not packed:
        raise ContractError("evaluate_unshuffle needs at least one example")
    rng = np.random.default_rng([seed, _EVAL])
    shuffled = []
    for ex in packed:
        perm = sample_permutation(ex.num_sentences, rng)
        shuffled.append(apply_shuffle(ex, perm))

    hits = []
    taus = []
    placed = 0
    with no_grad():
        for lo in range(0, len(shuffled), cfg.batch_size):
            chunk = shuffled[lo:lo + cfg.batch_size]
            rows = pad_rows([summary_positions(ex) for ex in chunk])
            c = encode_batch(params, cfg, chunk, rows=rows)
            preds = greedy_unshuffle(params, cfg, c,
                                     [ex.num_sentences for ex in chunk])
            for pred, ex in zip(preds, chunk):
                hits.append(np.array_equal(pred, ex.perm))
                taus.append(kendall_tau(pred, ex.perm))
                placed += int(np.count_nonzero(pred == ex.perm))
    sizes = np.array([ex.num_sentences for ex in shuffled])
    hits, taus = np.array(hits), np.array(taus)
    by_n = {}
    for n in np.unique(sizes):
        docs = sizes == n
        by_n[int(n)] = {"n": int(docs.sum()), "em": float(hits[docs].mean()),
                        "tau": float(taus[docs].mean())}
    return {"n": len(shuffled), "em": int(hits.sum()) / len(shuffled),
            "tau": float(np.mean(taus)),
            "pos_acc": placed / int(sizes.sum()), "by_n": by_n}
