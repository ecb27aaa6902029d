import logging

import numpy as np
import pytest

from slm.encoder import encode_batch, extract_summary
from slm.masking import IGNORE
from slm.objectives import _pointer_signals, mlm_loss, pretrain_bundle
from slm.reconstructor import decode_sequence
from slm.shuffling import (apply_shuffle, identity_record, order_targets,
                           sample_permutation)
from slm.tensor import Tensor, backward

from util import build_params, masked_example, small_config


def bundle_inputs(cfg, seed=0, n_examples=2, shuffle=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_examples):
        ex = masked_example(cfg, rng, n_sents=3)
        if shuffle:
            ex = apply_shuffle(ex, sample_permutation(3, rng))
        else:
            ex = identity_record(ex)
        out.append(ex)
    return out


def test_mlm_uniform_logits_give_log_vocab():
    # zeroed token table and bias make every logit 0, so the loss is
    # exactly log V no matter which rows are labeled
    cfg = small_config()
    params = build_params(cfg)
    params["emb.token"].data[:] = 0.0
    rng = np.random.default_rng(1)
    ex = masked_example(cfg, rng)
    h = encode_batch(params, cfg, [ex])
    loss, count = mlm_loss(h, params, np.stack([ex.mlm_labels]))
    assert count == int((ex.mlm_labels != IGNORE).sum()) > 0
    np.testing.assert_allclose(float(loss.data), np.log(cfg.vocab_size),
                               rtol=1e-6)


def test_mlm_single_label_equals_row_cross_entropy():
    from slm import tensor as T
    cfg = small_config()
    params = build_params(cfg, seed=2)
    rng = np.random.default_rng(3)
    ex = masked_example(cfg, rng)
    labels = np.full_like(ex.token_ids, IGNORE)
    pos = int(np.flatnonzero(ex.mlm_labels != IGNORE)[0])
    labels[pos] = ex.mlm_labels[pos]
    h = encode_batch(params, cfg, [ex])
    loss, count = mlm_loss(h, params, np.stack([labels]))
    assert count == 1
    row = Tensor(h.data[0, pos])
    logits = T.matmul(row.reshape(1, -1),
                      params["emb.token"].swapaxes(0, 1)) + params["mlm.bias"]
    expect = T.cross_entropy(logits.reshape(-1), int(labels[pos]))
    np.testing.assert_allclose(float(loss.data), float(expect.data), rtol=1e-6)


def test_mlm_no_labels_returns_zero_and_warns(caplog):
    cfg = small_config()
    params = build_params(cfg)
    rng = np.random.default_rng(4)
    ex = masked_example(cfg, rng)
    labels = np.full((1, cfg.seq_len), IGNORE)
    h = encode_batch(params, cfg, [ex])
    with caplog.at_level(logging.WARNING):
        loss, count = mlm_loss(h, params, labels)
    assert count == 0
    assert float(loss.data) == 0.0
    assert any("no labeled positions" in r.message for r in caplog.records)


def test_bundle_totals_are_consistent():
    cfg = small_config(sr_enabled=True)
    params = build_params(cfg, seed=5)
    bundle = pretrain_bundle(params, cfg, bundle_inputs(cfg, seed=6))
    assert bundle.total == np.float32(bundle.l_mlm) + np.float32(bundle.l_slm)
    assert bundle.l_slm > 0.0
    assert float(bundle.loss.data) == bundle.total


def test_sr_disabled_total_is_mlm_and_decoder_gets_no_gradient():
    cfg = small_config(sr_enabled=False)
    params = build_params(cfg, seed=7)
    for p in params.values():
        p.requires_grad = True
    bundle = pretrain_bundle(params, cfg, bundle_inputs(cfg, seed=8))
    assert bundle.l_slm == 0.0
    assert bundle.total == bundle.l_mlm
    assert np.isnan(bundle.pointer_acc) and np.isnan(bundle.pointer_entropy)
    assert np.isnan(bundle.pointer_self)
    backward(bundle.loss)
    for name, p in params.items():
        if name.startswith("dec."):
            assert p.grad is None or not np.any(p.grad), name
        if name.startswith("emb.token"):
            assert p.grad is not None and np.any(p.grad)


def test_gradient_splits_additively_across_heads():
    # linearity of backward: grad(mlm + slm) equals grad(mlm alone) plus
    # grad(slm alone); the lone terms come from switching the
    # reconstructor off and from stripping the word labels
    import dataclasses

    cfg = small_config(sr_enabled=True)
    examples = bundle_inputs(cfg, seed=9, n_examples=1)
    no_labels = [dataclasses.replace(ex, mlm_labels=None) for ex in examples]

    def grads(run_cfg, batch, warn_ok=False):
        params = build_params(cfg, seed=10)
        for p in params.values():
            p.requires_grad = True
        bundle = pretrain_bundle(params, run_cfg, batch)
        backward(bundle.loss)
        return {n: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for n, p in params.items()}

    g_total = grads(cfg, examples)
    g_mlm = grads(small_config(sr_enabled=False), examples)
    g_slm = grads(cfg, no_labels)

    for n in g_total:
        np.testing.assert_allclose(g_total[n], g_mlm[n] + g_slm[n],
                                   rtol=1e-4, atol=1e-6, err_msg=n)
    # word prediction never reaches the decoder
    for n in g_mlm:
        if n.startswith("dec."):
            np.testing.assert_array_equal(g_mlm[n], 0.0)


def test_initial_mlm_loss_near_log_vocab():
    cfg = small_config(vocab_size=200, seq_len=64, max_sentences=8)
    params = build_params(cfg, seed=11)
    rng = np.random.default_rng(12)
    examples = []
    for _ in range(8):
        ex = masked_example(cfg, rng, n_sents=4)
        examples.append(identity_record(ex))
    bundle = pretrain_bundle(params, cfg, examples)
    assert abs(bundle.l_mlm - np.log(cfg.vocab_size)) < 0.1 * np.log(cfg.vocab_size)


def test_unshuffled_batch_still_trains_pointer():
    # identity permutations keep the reconstruction term active with
    # targets 1..N then SEP, so a fraction-0 run still defines l_slm
    cfg = small_config(sr_enabled=True)
    params = build_params(cfg, seed=13)
    bundle = pretrain_bundle(params, cfg, bundle_inputs(cfg, seed=14, shuffle=False))
    assert bundle.l_slm > 0.0
    for ex in bundle_inputs(cfg, seed=14, shuffle=False):
        np.testing.assert_array_equal(
            order_targets(ex.perm, ex.num_sentences), [1, 2, 3, 4])


def test_no_grad_bundle_matches_graph_recording_bundle():
    """Under no_grad the encoder output is cut to the longest real row;
    the MLM labels follow it and the losses agree with the full pass."""
    from slm import tensor as T
    cfg = small_config()
    params = build_params(cfg, seed=2)
    rng = np.random.default_rng(9)
    batch = []
    for n in (1, 3, 2):
        ex = masked_example(cfg, rng, n_sents=n)
        batch.append(apply_shuffle(ex, sample_permutation(n, rng)))
    full = pretrain_bundle(params, cfg, batch)
    with T.no_grad():
        short = pretrain_bundle(params, cfg, batch)
    assert short.masked_count == full.masked_count
    np.testing.assert_allclose(short.l_mlm, full.l_mlm, atol=1e-5)
    np.testing.assert_allclose(short.l_slm, full.l_slm, atol=1e-5)


def test_pointer_signals_match_direct_numpy():
    """pointer_acc, pointer_self and pointer_entropy equal argmax hits
    on the target and on the row fed in, and entropy, taken by hand from
    each example's teacher-forced pointer rows."""
    cfg = small_config()
    params = build_params(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(21)
    batch = []
    for n in (1, 3, 2):
        ex = masked_example(cfg, rng, n_sents=n)
        batch.append(apply_shuffle(ex, sample_permutation(n, rng)))
    bundle = pretrain_bundle(params, cfg, batch)

    h = encode_batch(params, cfg, batch)
    hits, selfs, entropies = [], [], []
    for b, ex in enumerate(batch):
        c = extract_summary(h, ex, b)
        targets = order_targets(ex.perm, ex.num_sentences)
        w = decode_sequence(params, cfg, c, targets)
        fed = [0] + list(targets[:-1])
        for row, target, fed_row in zip(w.data[0], targets, fed):
            logits = c.data[0] @ row
            p = np.exp(logits - logits.max())
            p /= p.sum()
            hits.append(int(np.argmax(logits)) == target)
            selfs.append(int(np.argmax(logits)) == fed_row)
            entropies.append(-sum(q * np.log(q) for q in p if q > 0))
    assert len(hits) == 9
    # an untrained pointer is saturated on a wrong row: no step hits
    assert bundle.pointer_acc == sum(hits) / len(hits) == 0.0
    assert bundle.pointer_self == sum(selfs) / len(selfs)
    assert bundle.pointer_entropy == pytest.approx(np.mean(entropies),
                                                   rel=1e-9)


def test_pointer_signals_on_hand_built_rows():
    # step 0 is uniform over the four candidates (entropy ln 4) and its
    # argmax, row 0, misses; step 1 hits row 1; step 2 prefers row 2
    # over its target, row 3. The rows fed in are 0, 1 and 1: steps 0
    # and 1 point at their own input, step 2 does not
    c = Tensor(np.array([[[0, 0], [1, 0], [0, 1], [-1, -1]]], dtype=np.float32))
    w = Tensor(np.array([[[0, 0], [3, 0], [0, 3]]], dtype=np.float32))
    hits, self_hits, entropy = _pointer_signals(w, c, np.array([1, 1, 3]))

    def h(logits):
        p = np.exp(logits) / np.exp(logits).sum()
        return -np.sum(p * np.log(p))
    assert hits == 1
    assert self_hits == 2
    assert entropy == pytest.approx(
        np.log(4) + h(np.array([0, 3, 0, -3.0])) + h(np.array([0, 0, 3, -3.0])),
        rel=1e-12)
